"""Neural-network layers built on the autograd tensor."""

from .attention import MultiHeadAttention, scaled_dot_product_attention
from .conv import Conv2d
from .embedding import Embedding
from .linear import Linear
from .norm import LayerNorm
from .recurrent import GRU, GRUCell, LSTMCell

__all__ = [
    "Linear", "Conv2d", "GRU", "GRUCell", "LSTMCell",
    "MultiHeadAttention", "scaled_dot_product_attention",
    "LayerNorm", "Embedding",
]
