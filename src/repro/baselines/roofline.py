"""Roofline analysis (paper Fig. 3(d)).

Attainable performance = min(peak compute, intensity × bandwidth);
symbolic and probabilistic kernels sit far left on the intensity axis
(< 1 FLOP/byte), pinning them under the bandwidth roof — the
"memory-bound" diagnosis driving REASON's memory-centric design.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.device import DeviceModel, KernelProfile


@dataclass(frozen=True)
class RooflinePoint:
    """One kernel plotted on a device's roofline."""

    label: str
    operational_intensity: float  # FLOPS / byte
    attainable_tflops: float
    achieved_tflops: float
    memory_bound: bool

    @property
    def efficiency(self) -> float:
        if self.attainable_tflops == 0:
            return 0.0
        return self.achieved_tflops / self.attainable_tflops


def attainable_performance(device: DeviceModel, intensity: float) -> float:
    """Roofline ceiling in TFLOPS at the given operational intensity."""
    bandwidth_tflops = intensity * device.bandwidth_gbps * 1e9 / 1e12
    return min(device.peak_tflops, bandwidth_tflops)


def roofline_point(
    device: DeviceModel, profile: KernelProfile, label: str = ""
) -> RooflinePoint:
    """Locate a kernel on the device roofline.

    ``achieved`` applies the device's efficiency factors; a kernel is
    memory-bound when its bandwidth-limited ceiling sits below peak.
    """
    intensity = profile.operational_intensity
    ceiling = attainable_performance(device, intensity)
    time_s = device.kernel_time_s(profile)
    achieved = profile.flops / time_s / 1e12 if time_s > 0 else 0.0
    ridge = device.peak_tflops * 1e12 / (device.bandwidth_gbps * 1e9)
    return RooflinePoint(
        label=label or profile.kernel_class.value,
        operational_intensity=intensity,
        attainable_tflops=ceiling,
        achieved_tflops=achieved,
        memory_bound=intensity < ridge,
    )
