"""echolens: batch social-graph analytics over archived social-media corpora.

Library surface: NDJSON ingestion with filter streams and engagement
cleaning, a weighted directed interaction graph, influence-weighted label
propagation communities, PageRank influence scores on a 0..10 scale,
name-based demographic annotation, deterministic topic clustering, and
demographic-disproportionality reporting. The `echolens` console script
drives the same stages from a flat config file.
"""

from .analysis import (RepresentationRow, disproportionality_report, emit_reports,
                       topic_engagement)
from .community import (Community, CommunityAssignment, flag_offtopic,
                        gate_communities, label_propagation, node_importance)
from .config import ConfigError, RunConfig, derive_seed, load_config
from .demographics import (DemographicAnnotation, Gazetteer, NameModel,
                           NgramNameClassifier, ProperNounLexicon,
                           classify_race, demographic_distribution,
                           geolocate_country)
from .graph import InteractionGraph, build_interaction_graph
from .influence import PageRankResult, pagerank, rank_tables, scale_scores
from .ingest import (StreamSpec, TweetRecord, UserRecord, engagement_filter,
                     iter_corpus, parse_corpus, select_streams, stream_predicate)
from .pipeline import (MissingInputError, StageError, review_sample,
                       run_pipeline, run_stage)
from .topics import (BuiltinEmbedder, KMeansResult, NormalizedText, cluster,
                     embed_corpus, normalize_text, silhouette, top_terms)

__version__ = "0.1.0"
