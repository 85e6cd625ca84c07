"""Analytical cost model of the neural (LLM/DNN) stage.

The paper's workloads call closed LLMs (LLaMA, GPT); end-to-end latency
splits only need the neural stage's compute/memory profile, so this
model computes transformer FLOP and byte counts per prefill/decode step
from the standard 2·params approximation plus attention terms, and emits
:class:`~repro.baselines.device.KernelProfile` lists the device models
can time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.baselines.device import KernelClass, KernelProfile


@dataclass(frozen=True)
class TransformerCostModel:
    """Decoder-only transformer with standard dimension relations."""

    name: str
    num_parameters: float  # e.g. 7e9
    num_layers: int
    hidden_dim: int
    bytes_per_weight: float = 2.0  # fp16

    @property
    def kv_bytes_per_token(self) -> float:
        return 2 * self.num_layers * self.hidden_dim * self.bytes_per_weight

    def prefill_profiles(self, prompt_tokens: int) -> List[KernelProfile]:
        """Kernels for one prompt prefill (compute-bound GEMMs)."""
        gemm_flops = 2.0 * self.num_parameters * prompt_tokens
        attention_flops = (
            2.0 * self.num_layers * prompt_tokens * prompt_tokens * self.hidden_dim
        )
        weight_bytes = self.num_parameters * self.bytes_per_weight
        activation_bytes = prompt_tokens * self.hidden_dim * self.bytes_per_weight * self.num_layers
        return [
            KernelProfile(
                KernelClass.NEURAL_GEMM,
                gemm_flops + attention_flops,
                weight_bytes + activation_bytes,
                launches=self.num_layers * 4,
            ),
            KernelProfile(
                KernelClass.NEURAL_SOFTMAX,
                5.0 * self.num_layers * prompt_tokens * prompt_tokens,
                2.0 * self.num_layers * prompt_tokens * prompt_tokens,
                launches=self.num_layers,
            ),
        ]

    def decode_profiles(self, new_tokens: int, context_tokens: int) -> List[KernelProfile]:
        """Kernels for autoregressive decoding (memory-bound: weights
        stream per token)."""
        gemm_flops = 2.0 * self.num_parameters * new_tokens
        weight_bytes = self.num_parameters * self.bytes_per_weight * new_tokens
        kv_bytes = self.kv_bytes_per_token * context_tokens * new_tokens
        return [
            KernelProfile(
                KernelClass.NEURAL_GEMM,
                gemm_flops,
                weight_bytes + kv_bytes,
                launches=self.num_layers * 4 * max(new_tokens // 8, 1),
            ),
            KernelProfile(
                KernelClass.NEURAL_SOFTMAX,
                5.0 * self.num_layers * context_tokens * new_tokens,
                2.0 * self.num_layers * context_tokens * new_tokens,
                launches=max(new_tokens // 8, 1),
            ),
        ]

    def generation_profiles(
        self, prompt_tokens: int, new_tokens: int
    ) -> List[KernelProfile]:
        return self.prefill_profiles(prompt_tokens) + self.decode_profiles(
            new_tokens, prompt_tokens + new_tokens
        )


def _llama_like(name: str, params: float, layers: int, hidden: int) -> TransformerCostModel:
    return TransformerCostModel(name, params, layers, hidden)


#: The model sizes of the paper's scaling study (Fig. 2).
MODEL_ZOO: Dict[str, TransformerCostModel] = {
    "125M": _llama_like("125M", 1.25e8, 12, 768),
    "1B": _llama_like("1B", 1.1e9, 22, 2048),
    "7B": _llama_like("7B", 6.7e9, 32, 4096),
    "8B": _llama_like("8B", 8.0e9, 32, 4096),
    "13B": _llama_like("13B", 1.3e10, 40, 5120),
    "70B": _llama_like("70B", 7.0e10, 80, 8192),
}
