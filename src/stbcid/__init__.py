"""SM vs Alamouti space-time block code recognition toolkit."""

from .signal_model import (
    CodingScheme,
    encode,
    modulate_qpsk,
    noise_variance_for_snr,
)
from .dataset import (
    DatasetConfig,
    FrameSet,
    deserialize_frames,
    generate_dataset,
    serialize_frames,
    split_train_val,
)
from .classifier import (
    Model,
    ModelSpec,
    TrainConfig,
    TrainHistory,
    build_cnn2,
    initialize,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .baseline_corr import ThresholdRule, calibrate_threshold
from .evaluation import AccuracyCurve, LossCurve, accuracy_vs_snr
from .errors import ParameterError, ShapeError

__version__ = "0.1.0"
