"""A workbench for sunflower search in finite relational structures:
structures on k-sets, partition experiments, high-girth witness
hypergraphs, pasting, and verifiable sunflower certificates."""

from .structures import (
    BudgetExceeded,
    ClassSpec,
    Embedding,
    QfType,
    Signature,
    SignatureMismatch,
    Structure,
    are_isomorphic,
    canonical_form,
    check_3dap_over_empty,
    find_embeddings,
    is_irreducible,
    qf_type,
    realisation_set,
    satisfies_class,
)
from .catalog import class_by_name, structure_by_name
from .generators import (
    NoAdmissibleExtension,
    extension_defects,
    gen_generic,
    gen_named,
)
from .partitionlab import (
    Colouring,
    Partition,
    colour_copy_search,
    min_embedding_colouring,
    named_partition,
    partition_report,
)
from .ksets import (
    Presentation,
    SunflowerCert,
    canonical_sets,
    encode_colouring,
    enumerate_presentations,
    find_sunflower_copies,
    random_presentation,
    sunflower_centre,
    verify_witness,
)
from .ramsey import (
    GenerationError,
    GenParams,
    PartitionedHypergraph,
    dichotomy_holds,
    failure_bound,
    gen_witness_hypergraph,
    hypergraph_girth,
    suitable_params,
    witness_adversary,
)
from .witness import (
    ExtractionFailed,
    WitnessChain,
    build_witness_chain,
    extract_sunflower,
    paste,
    replay_trace,
    verify_certificate,
)

__version__ = "0.1.0"
