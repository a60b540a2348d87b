"""The paper's benchmark circuits and supporting netlist machinery."""

from .bodies import BusPlayer, DffCapture
from .dct import DctCircuit, build_dct, reference_product
from .fsm import FsmCircuit, build_fsm, reference_taps
from .gates import Netlist, bus_value
from .iir import IirCircuit, build_iir, reference_response
from .random_logic import RandomCircuit, build_random
from .weighted import build_pipeline_bank
from .vhdl_text import (build_fsm_from_vhdl, build_iir_from_vhdl,
                        build_random_behavioral, fsm_vhdl, iir_vhdl,
                        iir_vhdl_reference, random_behavioral_vhdl)

__all__ = [
    "Netlist", "bus_value",
    "BusPlayer", "DffCapture",
    "FsmCircuit", "build_fsm", "reference_taps",
    "IirCircuit", "build_iir", "reference_response",
    "DctCircuit", "build_dct", "reference_product",
    "RandomCircuit", "build_random",
    "build_pipeline_bank",
    "fsm_vhdl", "build_fsm_from_vhdl",
    "iir_vhdl", "build_iir_from_vhdl", "iir_vhdl_reference",
    "random_behavioral_vhdl", "build_random_behavioral",
]
