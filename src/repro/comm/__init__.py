"""Communication substrate: data locality, transfer times, coherence.

The paper's introduction lists what a runtime scheduler knows at every
decision point, including *"(iv) the location of all input files of all
tasks"* and *"(v) an estimation of ... each communication between each
pair of resources"*.  The core experiments of the paper assume
communication-free durations (as do its proofs); this package is the
optional substrate that models the missing piece the way StarPU does:

* :mod:`repro.comm.model` — a bandwidth/latency transfer-time model
  (PCIe-class defaults) between the node's memory spaces;
* :mod:`repro.comm.memory` — an MSI-style data directory tracking where
  valid copies of every data handle live (main RAM shared by the CPUs,
  one private memory per GPU);
* :mod:`repro.comm.runtime` — communication-aware runs of the one
  discrete-event runtime, through its data-movement hook: before a task
  executes, missing input copies are fetched (serialised with the
  execution — no prefetch), writes invalidate remote copies, and all
  transfers are traced;
* :mod:`repro.comm.heft` — the data-aware HEFT variant that adds
  estimated transfer times to its earliest-finish-time rule (the
  classic HEFT formulation, and StarPU's ``dmdas``).

This is an *extension* of the paper's evaluation (documented as such in
DESIGN.md): it lets users quantify how sensitive each scheduler's
ranking is to communication costs.
"""

from repro.comm.model import CommunicationModel, Location, RAM
from repro.comm.memory import DataDirectory
from repro.comm.runtime import TransferEvent, simulate_with_comm
from repro.comm.heft import CommAwareHeftPolicy

__all__ = [
    "CommunicationModel",
    "Location",
    "RAM",
    "DataDirectory",
    "TransferEvent",
    "simulate_with_comm",
    "CommAwareHeftPolicy",
]
