from . import tape
from .layers import batch_norm, dense, single_head_attention
from .params import (CHECKPOINT_VERSION, CheckpointError, Parameter,
                     ParameterStore, adam_step, add_dense, load_checkpoint,
                     save_checkpoint, uniform_init)
from .tape import Node, backward, constant
