"""Audio-visual emotion feature fusion toolkit.

Attention-based intra-modal pooling, factorized bilinear cross-modal fusion,
feature-enhancement aggregators, spectrogram front-ends, and a softmax
classifier with class re-weighting — all with hand-derived gradients
validated by finite differences, plus a config-driven experiment CLI.
"""

from .attention import (RelationAttnParams, SelfAttnParams, TransformerAttnParams,
                        relation_attend, self_attend, transformer_attend)
from .classifier import (ClassScores, ClassWeights, SoftmaxParams,
                         apply_class_weights, softmax_forward)
from .config import ExperimentConfig, load_config, parse_config
from .enhance import (TtaTransform, enumerate_tta, f_ar_mean, f_mean,
                      f_meanstd, f_normfft)
from .errors import AvfusionError
from .experiment import FusionPipeline, Metrics, run_experiment
from .fbp import FBPParams, FusedVec, fbp_expand, fbp_fuse
from .features import FeatureBag, FeatureSet
from .featfile import load_checkpoint, load_features, save_checkpoint, save_features
from .gradcheck import grad_check
from .rng import Rng
from .synthetic import SyntheticDataset, gen_synthetic

__version__ = "0.1.0"
