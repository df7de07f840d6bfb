"""Continual quality-score regression with manifold-aligned feature replay."""

__version__ = "0.1.0"

from .autodiff import AdamState, Tensor, adam_init, adam_step, backward, grad_check
from .data import (DataConfig, Dataset, Sample, ScoreScaler, SessionPlan,
                   generate_synthetic, grade_split, inject_label_noise,
                   load_csv, normalize_scores, save_csv)
from .losses import (JointBatch, angular_distance_matrix, graph_reg_loss,
                     kl_row_divergence, projector_loss, regression_loss,
                     score_distance_matrix, total_loss)
from .memory import MemoryBank, ous_select, refresh, sample_replay, store_session
from .metrics import EvalMatrix, rho_aft, rho_fwt, spearman
from .models import (BundleSpec, MlpSpec, ModelBundle, default_spec, encode,
                     freeze_copy, init_bundle, predict, project, regress)
from .trainer import (TrainConfig, TrainState, feature_deviation, new_state,
                      run_continual, train_session)

__all__ = [name for name in dir() if not name.startswith("_")]
