"""4D panoptic LiDAR segmentation: volumes, clustering, tracking, metrics."""

from .clustering import (
    ClusterFields,
    ClusterParams,
    InstanceAssignment,
    build_point_features,
    cluster_volume,
    gaussian_affinity,
    majority_vote_classes,
    read_cluster_fields,
    write_cluster_fields,
)
from .config import RunConfig
from .errors import FormatError, InvariantError, Pan4DError, ValidationError
from .kitti_io import (
    PanopticLabels,
    Pose,
    Scan,
    load_sequence,
    read_labels,
    read_point_scan,
    read_poses,
    write_labels,
    write_point_scan,
)
from .losses import (
    balanced_class_sample,
    check_gradients,
    class_loss,
    instance_loss,
    objectness_loss,
    objectness_target,
    total_loss,
    variance_smoothness_loss,
)
from .metrics import (
    EvalConfig,
    MetricReport,
    PanopticEvaluator,
    brute_force_s_assoc,
    evaluate,
    lstq,
    mots_from_counts,
    pq_from_counts,
)
from .synth import (
    ObjectSpec,
    SceneSpec,
    corrupt,
    generate_sequence,
    write_sequence,
)
from .tracking import TrackLedger, WindowResult, associate_windows, run_online_pipeline
from .volume import (
    ScanState,
    Volume4D,
    VolumeConfig,
    align_scan,
    backfill_skipped,
    build_volume,
)

__version__ = "0.1.0"
