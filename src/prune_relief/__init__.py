"""Importance-score pruning for small feed-forward classifiers.

The package trains float32 dense/conv networks from scratch, scores every
connection by its share of the target unit's mean absolute signal on a
pruning set, masks everything below a kept-mass threshold, retrains, and
repeats. Analytical bounds tie the score mass removed to the worst mean
deviation a unit (or the whole network output) can suffer, and the metrics
module accounts parameters and FLOPs for the masked result.
"""

from .activations import ACTIVATIONS, Activation, get_activation
from .bounds import (bound_report, fc_neuron_bound, measure_deviation,
                     network_output_bound)
from .config import build_network, load_config, load_dataset, parse_config
from .datasets import Dataset, load_idx, load_idx_images, load_idx_labels, \
    normalize_pair, synth_dataset
from .errors import (CapabilityError, ConfigError, DimensionError,
                     EmptyPruningSetError, FormatError, PruneReliefError,
                     TrainingError)
from .importance import (ImportanceScores, LayerDecisions, Selection,
                         conv_importance, fc_importance, prune_pass,
                         score_layer, score_network, select_kept)
from .layers import (ConvLayer, DenseLayer, Flatten, MaxPool2D, sample_first,
                     sample_last)
from .metrics import (CompressionReport, FlopsReport, compression_stats,
                      export_heatmaps, export_importance_csv, flops_conv,
                      flops_dense, gini, kept_connection_scores, masked_flops,
                      score_stats)
from .model_io import load_model, save_model
from .network import Network
from .optimizers import (LrSpan, Optimizer, OptimizerConfig, adam_step,
                         sgd_step)
from .pipeline import (PURPOSE_INIT, PURPOSE_PRUNE_DRAW, PURPOSE_REINIT,
                       PURPOSE_RETRAIN, PURPOSE_TRAIN, IterationReport,
                       PruneConfig, history_line, iterate, read_history,
                       select_best)
from .tensor_ops import conv_output_hw, im2col
from .training import (evaluate, forward_backward, init_params,
                       softmax_cross_entropy, train)

__version__ = "0.1.0"
