"""Registry of the benchmark's workloads, by the name ``--workload`` takes."""

from wl_cli import CliVerify
from wl_conic import Conic
from wl_iface import IfaceDesign
from wl_lang import LangLarge

WORKLOADS = {wl.name: wl for wl in (LangLarge, IfaceDesign, Conic, CliVerify)}
