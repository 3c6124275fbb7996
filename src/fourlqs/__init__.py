"""Reasoner for a stratified set fragment: KE-style tableau saturation,
model extraction, and higher-order conjunctive query answering."""

from .core import (EPSILON, SORT0, SORT1, SORT3, Eq, FourlqsError,
                   KnowledgeBase, KbBuilder, Literal, MalformedSubstitutionError,
                   Member1, Member3, NamespaceError, PreconditionError,
                   Substitution, UniversalClause, Variable, qvar0,
                   substitution0, var0, var1, var3)
from .engine import (Branch, EngineOptions, EngineStats, ResourceLimitError,
                     SaturationResult, saturate)
from .hocqa import (Answer, AnswerSet, StaleBranchError, TaskArityError,
                    answer, task_query)
from .oracle import (BoundsExceededError, Interpretation, OracleBounds,
                     brute_answers, enumerate_models, extract_model,
                     is_consistent, model_check, reference_saturate)
from .syntax import (ParseError, Query, SourceSpan, parse_kb, parse_query,
                     render, render_answer_set, render_kb,
                     render_model_report, render_query)

__version__ = "0.1.0"
