"""Audio-visual emotion feature fusion toolkit.

Attention-based intra-modal pooling, factorized bilinear cross-modal fusion,
feature-enhancement aggregators, spectrogram front-ends, and a softmax
classifier with class re-weighting — all with hand-derived gradients
validated by finite differences, plus a config-driven experiment CLI.
"""

from .attention import POOLS
from .classifier import (ClassScores, ClassWeights, SoftmaxParams,
                         apply_class_weights, class_probs)
from .config import ExperimentConfig, load_config, parse_config
from .enhance import (TtaTransform, ar_mean_rows, enumerate_tta, mean_rows,
                      meanstd_rows, normfft_rows)
from .errors import AvfusionError
from .experiment import Concat, FusionPipeline, IntraStage, Metrics, run_experiment
from .fbp import FBPParams, FusedVec, fbp_fuse
from .featfile import load_checkpoint, load_features, save_checkpoint, save_features
from .gradcheck import grad_check
from .rng import Rng
from .synthetic import SyntheticDataset, gen_synthetic

__version__ = "0.1.0"
