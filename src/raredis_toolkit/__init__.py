"""Corpus toolkit for end-to-end relation extraction on RareDis-style
standoff annotations: defect repair, statistics, discontinuous-entity
flattening, model-target encoding/decoding, and strict-match scoring."""

from .corpus import (
    SHAPE_CLASSES,
    CorpusStats,
    SplitSpec,
    corpus_statistics,
    document_shapes,
    split_corpus,
)
from .errors import (
    DocumentError,
    FlattenError,
    RepairError,
    SplitError,
    StandoffParseError,
    ToolkitError,
)
from .flatten import OffsetMap, flatten_document
from .repair import (
    RepairLog,
    RepairSummary,
    repair_all,
    summarize_repairs,
)
from .schema import (
    DEFAULT_NOUN_MAP,
    SCHEMA_KINDS,
    build_prompt,
    codec,
    decode_target_report,
    encode_target,
    normalize_generation,
    special_tokens,
)
from .scoring import (
    ErrorRecord,
    ScoreReport,
    categorize_errors,
    score,
    score_corpus,
)
from .standoff import (
    ENTITY_TYPES,
    PREDICATES,
    AnnotatedDocument,
    EntityMention,
    RelationInstance,
    iter_corpus_dir,
    load_corpus_dir,
    parse_document,
    read_document_pair,
    serialize_document,
    write_corpus_dir,
)
from .triples import Triple, normalize_text

__version__ = "0.1.0"

__all__ = [
    "AnnotatedDocument",
    "CorpusStats",
    "DEFAULT_NOUN_MAP",
    "DocumentError",
    "ENTITY_TYPES",
    "EntityMention",
    "ErrorRecord",
    "FlattenError",
    "OffsetMap",
    "PREDICATES",
    "RelationInstance",
    "RepairError",
    "RepairLog",
    "RepairSummary",
    "SCHEMA_KINDS",
    "SHAPE_CLASSES",
    "ScoreReport",
    "SplitError",
    "SplitSpec",
    "StandoffParseError",
    "ToolkitError",
    "Triple",
    "build_prompt",
    "categorize_errors",
    "codec",
    "corpus_statistics",
    "decode_target_report",
    "document_shapes",
    "encode_target",
    "flatten_document",
    "iter_corpus_dir",
    "load_corpus_dir",
    "normalize_generation",
    "normalize_text",
    "parse_document",
    "read_document_pair",
    "repair_all",
    "score",
    "score_corpus",
    "serialize_document",
    "special_tokens",
    "split_corpus",
    "summarize_repairs",
    "write_corpus_dir",
]
