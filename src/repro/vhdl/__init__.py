"""The distributed VHDL kernel: values, signals, processes, designs."""

from .artifact import (ArtifactError, DesignArtifact, artifact_key,
                       build_artifact)
from .cache import ElabCache, cached_elaborate
from .compile import CompiledBody, Frame, lower_design
from .design import Design
from .kernel import (EXEC_MODES, SimulationResult, execute, simulate,
                     simulate_parallel)
from .process import (ClockedBody, ClockGeneratorBody, CombinationalBody,
                      GeneratorBody, ProcessBody, ProcessLP,
                      Wait, sid, sids)
from .signal import Assignment, Driver, SignalLP, resolve_values
from .values import (SL_0, SL_1, SL_DASH, SL_H, SL_L, SL_U, SL_W, SL_X,
                     SL_Z, StdLogic, resolve, sl, slv, vector_to_int,
                     vector_to_str)

__all__ = [
    "Design", "SimulationResult", "execute", "simulate",
    "simulate_parallel",
    "ArtifactError", "DesignArtifact", "artifact_key", "build_artifact",
    "ElabCache", "cached_elaborate",
    "CompiledBody", "Frame", "lower_design", "EXEC_MODES",
    "ClockedBody", "ClockGeneratorBody", "CombinationalBody",
    "GeneratorBody", "ProcessBody", "ProcessLP", "Wait",
    "sid", "sids",
    "Assignment", "Driver", "SignalLP", "resolve_values",
    "StdLogic", "resolve", "sl", "slv", "vector_to_int", "vector_to_str",
    "SL_U", "SL_X", "SL_0", "SL_1", "SL_Z", "SL_W", "SL_L", "SL_H",
    "SL_DASH",
]
