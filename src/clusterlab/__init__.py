"""clusterlab: partitional clustering toolkit with tendency assessment,
K-means, PAM, silhouette validation, k-sweeps and SVG/JSON reporting."""

__version__ = "0.1.0"

from .dataset import (  # noqa: E402
    BENIGN,
    MALIGNANT,
    CsvFormat,
    Dataset,
    PreprocessReport,
    RawTable,
    build_dataset,
    drop_missing_rows,
    parse_arff,
    parse_csv,
    preprocess,
    write_arff,
)
from .distances import (  # noqa: E402
    DistanceMatrix,
    Metric,
    distance,
    pairwise_distances,
)
from .kmeans import KMeans, wss  # noqa: E402
from .kmedoids import KMedoids, pam_cost  # noqa: E402
from .projection import PCA2D, jacobi_eigh  # noqa: E402
from .report import (  # noqa: E402
    AnalysisReport,
    ClusterNaming,
    emit_report,
    name_clusters,
    validate_report_dict,
)
from .svgplot import scatter_svg, silhouette_svg, sweep_svg  # noqa: E402
from .tendency import HopkinsResult, hopkins_statistic  # noqa: E402
from .validation import (  # noqa: E402
    KSweepResult,
    SilhouetteReport,
    silhouette_report,
    sweep_k,
)

__all__ = [
    "__version__",
    "BENIGN",
    "MALIGNANT",
    "CsvFormat",
    "Dataset",
    "PreprocessReport",
    "RawTable",
    "build_dataset",
    "drop_missing_rows",
    "parse_arff",
    "parse_csv",
    "preprocess",
    "write_arff",
    "DistanceMatrix",
    "Metric",
    "distance",
    "pairwise_distances",
    "KMeans",
    "wss",
    "KMedoids",
    "pam_cost",
    "PCA2D",
    "jacobi_eigh",
    "AnalysisReport",
    "ClusterNaming",
    "emit_report",
    "name_clusters",
    "validate_report_dict",
    "scatter_svg",
    "silhouette_svg",
    "sweep_svg",
    "HopkinsResult",
    "hopkins_statistic",
    "KSweepResult",
    "SilhouetteReport",
    "silhouette_report",
    "sweep_k",
]
