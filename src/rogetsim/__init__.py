"""rogetsim: edge-counting semantic similarity over a Roget-style thesaurus.

The package loads a 9-level thesaurus taxonomy from a line-oriented
interchange format, measures semantic distance as edges on the shortest
tree path between word references, converts it to a 0-16 similarity
score, answers four-choice synonym questions and correlates similarity
scores with human judgment benchmarks.

The names of ``solver``, ``bench`` and ``gutenberg`` resolve on first use
(a module ``__getattr__``, PEP 562): ``import rogetsim`` and a ``roget
sim``, ``distance`` or ``paths`` call never import those modules.
"""

import importlib
import sys

from .errors import (CorrelationUndefinedError, GutenbergImportError,
                     InvalidNodeError, InvalidReferenceError, ParseError,
                     ReportError, RogetError, WordNotFoundError)
from .interchange import (StructureReport, build_index, load, normalize,
                          parse_interchange, serialize, structure_signature,
                          validate_structure)
from .similarity import (SimilarityTier, WordDistanceResult,
                         enumerate_shortest_paths, path_headers, similarity,
                         similarity_tier, word_min_distance)
from .taxonomy import (MAX_DISTANCE, Level, PartOfSpeech, Reference,
                       TaxonomyNode, Thesaurus)

__version__ = "0.1.0"

# The public names of the modules imported on first use, by module.
_LAZY = {
    "bench": ("OutlierRow", "PairReport", "PairRow", "PairScale",
              "ScoredPair", "evaluate_pairs", "load_pairs", "outlier_report",
              "pearson"),
    "gutenberg": ("ConversionReport", "import_gutenberg_1911"),
    "solver": ("ChoiceEvaluation", "QuestionResult", "SynonymQuestion",
               "TestReport", "answer_question", "evaluate_choice",
               "filter_noun_only", "load_questions", "score_test",
               "tokenize_choice"),
}
_MODULE_OF = {name: module for module, names in _LAZY.items()
              for name in names}

__all__ = [
    "CorrelationUndefinedError", "GutenbergImportError", "InvalidNodeError",
    "InvalidReferenceError", "ParseError", "ReportError", "RogetError",
    "WordNotFoundError",
    "StructureReport", "build_index", "load", "normalize",
    "parse_interchange", "serialize", "structure_signature",
    "validate_structure",
    "SimilarityTier", "WordDistanceResult", "enumerate_shortest_paths",
    "path_headers", "similarity", "similarity_tier", "word_min_distance",
    "MAX_DISTANCE", "Level", "PartOfSpeech", "Reference", "TaxonomyNode",
    "Thesaurus",
    *_MODULE_OF,
]


def __getattr__(name):
    module_name = _MODULE_OF.get(name)
    if module_name is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    qualified = __name__ + "." + module_name
    imported_here = qualified not in sys.modules
    # import_module waits for another thread's unfinished import.
    module = importlib.import_module(qualified)
    if imported_here:
        # Bound as plain globals, so that later reads cost what an eager
        # name's do.  A module imported elsewhere first (by a command, or
        # by a tracer that wraps its functions) is only read through:
        # nothing here keeps a wrapper once it is removed.
        globals().update((n, getattr(module, n)) for n in _LAZY[module_name])
    return getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
