"""PTX just-in-time compilation.

The CUDA driver JIT-compiles PTX for the installed GPU when no matching
cuBIN exists (or when ``CUDA_FORCE_PTX_JIT`` forces it — the switch
Guardian depends on so its *patched* PTX, not the stale embedded cuBIN,
is what runs). Our JIT is the simulator's ``ptxas``: parse, validate,
register-allocate and decode every kernel into executable form.

JIT compilation is not free; the paper cites it as the reason the
GuardianServer compiles all sandboxed PTX **at initialisation** rather
than per launch (§4.4). The cost model here charges a per-kernel
compilation cost so that design choice is measurable
(`benchmarks/test_ablation_param_passing.py`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.errors import PTXError
from repro.gpu.executor import CompiledKernel, compile_kernel
from repro.gpu.specs import DeviceSpec
from repro.ptx.ast import Module
from repro.ptx.parser import parse_module
from repro.ptx.validator import validate_module

#: Host-side cost of JIT-compiling one kernel, in CPU cycles. Real
#: ptxas takes milliseconds per kernel; at 3 GHz this is a conservative
#: stand-in used by the ablation benchmarks.
JIT_CYCLES_PER_KERNEL = 3_000_000


@dataclass
class CompiledModule:
    """A JIT-compiled module, ready to be loaded into a context.

    ``module`` and ``kernels`` hold no per-load state, so loads of the
    same text may share them; ``jit_cycles`` is what this one load is
    charged.
    """

    module: Module
    kernels: dict[str, CompiledKernel]
    jit_cycles: int = 0
    #: module-scope .global arrays (name -> size bytes), allocated when
    #: the module is loaded into a context.
    global_arrays: dict[str, int] = field(default_factory=dict)


def jit_compile(source: Union[str, Module],
                spec: DeviceSpec) -> CompiledModule:
    """Compile PTX text (or an already-parsed module) for ``spec``.

    Raises:
        PTXError: on parse or validation failure (what ptxas rejecting
            a malformed module looks like).
    """
    if isinstance(source, str):
        module = parse_module(source)
    else:
        module = source
    validate_module(module)
    global_names = frozenset(decl.name for decl in module.globals)
    kernels = {
        kernel.name: compile_kernel(kernel, spec, global_names=global_names)
        for kernel in module.kernels.values()
    }
    if not kernels:
        raise PTXError("module contains no kernels")
    return CompiledModule(
        module=module,
        kernels=kernels,
        jit_cycles=JIT_CYCLES_PER_KERNEL * len(kernels),
        global_arrays={
            decl.name: decl.size_bytes for decl in module.globals
        },
    )
