"""coordfuse: dual-branch land-cover classification for remote sensing rasters.

A per-pixel spectral 1-d CNN and a two-layer coordinate MLP are fused by
vector addition and classified by a softmax head. Everything (forward,
backward, Adam) is explicit numpy; no autodiff framework is involved.
"""

from coordfuse.numerics import create_rng, glorot_init
from coordfuse.dataset import (
    DataCube,
    LabelMap,
    SampleSet,
    SplitSpec,
    coord_features,
    extract_samples,
    generate_synthetic,
    load_cube,
    load_labels,
    normalize_cube,
    save_cube,
    save_labels,
    stratified_split,
)
from coordfuse.model import (
    DualBranchModel,
    ModelConfig,
    NetworkConfig,
    backward,
    build,
    forward,
    forward_many,
    load_checkpoint,
    param_shapes,
    predict_many,
    save_checkpoint,
)
from coordfuse.optimizer import AdamState, TrainConfig, TrainHistory, adam_step, train
from coordfuse.evaluation import (
    CrfParams,
    EvalReport,
    confusion,
    default_palette,
    dense_energy,
    metrics,
    render_map,
)

__version__ = "0.1.0"
