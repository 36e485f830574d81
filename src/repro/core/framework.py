"""The end-to-end SIMDRAM framework facade.

:class:`Simdram` wires together every layer of the reproduction the way
the paper's Figure 1 wires the real system:

1. operations are compiled (Step 1+2) on first use and their µPrograms
   installed into the control unit's scratchpad;
2. host arrays enter DRAM through the transposition unit into vertical
   row blocks managed by the allocator;
3. a ``bbop`` instruction is formed, encoded/decoded through the ISA, and
   dispatched to the control unit, which replays the µProgram across the
   participating banks (Step 3).

Typical use::

    sim = Simdram()
    a = sim.array([1, 2, 3, 4], width=8)
    b = sim.array([10, 20, 30, 40], width=8)
    total = sim.run("add", a, b)
    print(total.to_numpy())        # [11 22 33 44]
"""

from __future__ import annotations

import contextlib
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.compiler import compile_operation
from repro.core.expr import Expr, dag_hash
from repro.core.fuse import FusedKernel, MultiKernel, multi_digest
from repro.core.fuse import compile_expr as _compile_expr
from repro.core.fuse import compile_multi as _compile_multi
from repro.core.operations import (
    CATALOG,
    BuildFn,
    GoldenFn,
    OperationSpec,
    get_operation,
    register_operation,
)
from repro.dram.bank import DramModule
from repro.dram.commands import CommandStats
from repro.dram.energy import DramEnergy
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTiming
from repro.errors import ExecutionError, OperationError
from repro.exec.control_unit import ControlUnit, ProgramKey
from repro.exec.engines import ExecutionEngine
from repro.exec.layout import RowLayout
from repro.exec.memory import RowBlock, VerticalAllocator
from repro.exec.tracker import ObjectTracker
from repro.exec.transposition import TranspositionUnit
from repro.isa.instructions import BbopInstruction, bbop, bbop_trsp_init
from repro.obs.flightrec import DEFAULT_CAPACITY
from repro.obs.tracing import span as obs_span
from repro.uprog.program import MicroProgram
from repro.uprog.scheduler import ScheduleOptions
from repro.uprog.uops import INPUT_SPACES, Space


@dataclass(frozen=True)
class SimdramConfig:
    """Configuration of a simulated SIMDRAM system."""

    geometry: DramGeometry = field(default_factory=DramGeometry.sim_small)
    timing: DramTiming = field(default_factory=DramTiming.ddr4_2400)
    energy: DramEnergy = field(default_factory=DramEnergy.ddr4)
    schedule: ScheduleOptions = field(default_factory=ScheduleOptions)
    optimize_mig: bool = True
    backend: str = "simdram"  # default substrate for compiled operations


class SimdramArray:
    """A handle to a vertically laid-out vector resident in DRAM.

    A handle is ``"live"`` until its rows are released: explicitly
    through :meth:`free`, or by the runtime's paging layer, which marks
    the handle ``"evicted"`` after spilling its bits to host memory.
    Reading a non-live handle raises :class:`~repro.errors.ExecutionError`
    instead of returning whatever now occupies the rows.
    """

    def __init__(self, framework: "Simdram", block: RowBlock,
                 n_elements: int, width: int, signed: bool) -> None:
        self._framework = framework
        self.block = block
        self.n_elements = n_elements
        self.width = width
        self.signed = signed
        self.status = "live"  # "live" | "freed" | "evicted"

    def to_numpy(self) -> np.ndarray:
        """Read the vector back to the host (through the transposer)."""
        return self._framework.read(self)

    def require_live(self) -> None:
        """Raise unless this handle still owns its rows."""
        if self.status != "live":
            raise ExecutionError(
                f"array at rows [{self.block.base}, {self.block.end}) "
                f"is {self.status}; its rows may hold unrelated data")

    def free(self) -> None:
        """Release the underlying row block and its tracker entry.

        Idempotent: freeing an already-freed or evicted handle is a
        no-op (an evicted handle's rows were released at eviction).
        """
        if self.status == "live":
            self._framework.tracker.release(self.block.base)
            self._framework._allocator.free(self.block)
        self.status = "freed"

    def __len__(self) -> int:
        return self.n_elements

    def __repr__(self) -> str:
        sign = "i" if self.signed else "u"
        return (f"SimdramArray({self.n_elements} x {sign}{self.width}, "
                f"rows [{self.block.base}, {self.block.end}), "
                f"{self.status})")


class Simdram:
    """End-to-end SIMDRAM system simulator and programming interface."""

    def __init__(self, config: SimdramConfig | None = None,
                 trace: bool = False, seed: int | None = 1) -> None:
        self.config = config or SimdramConfig()
        self.module = DramModule(self.config.geometry, trace=trace,
                                 seed=seed)
        self.control = ControlUnit()
        self.transposer = TranspositionUnit(self.config.timing,
                                            self.config.energy)
        self.tracker = ObjectTracker(capacity=4096)
        self._allocator = VerticalAllocator(self.config.geometry)
        self._programs: dict[tuple[str, int, str], MicroProgram] = {}
        #: Fused-kernel cache: (DAG hash, width, backend) -> FusedKernel.
        self._fused: dict[tuple[str, int, str], FusedKernel] = {}
        #: Multi-root kernel cache: (joint hash, width, backend).
        self._multi: dict[tuple[str, int, str], MultiKernel] = {}
        #: Stats of the most recent :meth:`run` call.
        self.last_stats: CommandStats | None = None
        #: Instruction log (the most recent bbops issued), for
        #: tests/inspection; bounded so uptime does not grow memory.
        self.issued: "deque[BbopInstruction]" = deque(
            maxlen=DEFAULT_CAPACITY)

    # ------------------------------------------------------------------
    # operation management
    # ------------------------------------------------------------------
    def compile(self, op_name: str, width: int,
                backend: str | None = None) -> MicroProgram:
        """Compile (steps 1+2) and install an operation's µProgram."""
        backend = backend or self.config.backend
        key = (op_name, width, backend)
        program = self._programs.get(key)
        if program is None:
            spec = get_operation(op_name)
            # The configured schedule options describe *SIMDRAM's* Step-2
            # scheduler; the Ambit baseline keeps its own default (fixed
            # per-gate sequences, see compile_operation).
            options = (self.config.schedule if backend == "simdram"
                       else None)
            program = compile_operation(
                spec, width, backend=backend, options=options,
                optimize_mig=self.config.optimize_mig)
            self.control.install(program)
            self._programs[key] = program
        return program

    def compile_expr(self, root: Expr, width: int,
                     backend: str | None = None) -> FusedKernel:
        """Compile an expression DAG into one fused µProgram (cached).

        The cache key is the DAG's stable content hash plus the element
        width and backend, so structurally identical pipelines share one
        compiled kernel — and, downstream, one control-unit
        :class:`~repro.exec.plan.ExecutionPlan` per row layout.
        """
        backend = backend or self.config.backend
        key = (dag_hash(root), width, backend)
        kernel = self._fused.get(key)
        if kernel is None:
            options = (self.config.schedule if backend == "simdram"
                       else None)
            kernel = _compile_expr(
                root, width, backend=backend, options=options,
                optimize_mig=self.config.optimize_mig)
            self.control.install(kernel.program)
            self._fused[key] = kernel
        return kernel

    def compile_multi(self, roots: dict[str, Expr], width: int,
                      backend: str | None = None) -> MultiKernel:
        """Compile several roots into one multi-output µProgram (cached).

        The cache key is the joint content hash of the named roots plus
        the element width and backend, exactly like
        :meth:`compile_expr` for single-root kernels.
        """
        backend = backend or self.config.backend
        key = (multi_digest(roots), width, backend)
        kernel = self._multi.get(key)
        if kernel is None:
            options = (self.config.schedule if backend == "simdram"
                       else None)
            kernel = _compile_multi(
                roots, width, backend=backend, options=options,
                optimize_mig=self.config.optimize_mig)
            self.control.install(kernel.program)
            self._multi[key] = kernel
        return kernel

    def adopt_program(self, program: MicroProgram,
                      backend: str | None = None) -> None:
        """Install an externally compiled µProgram into this module.

        µPrograms are symbolic (geometry-independent), so a cluster
        compiles each operation once and adopts the same program into
        every member module's scratchpad instead of re-running steps
        1+2 per module.  No-op if an identical program is installed.
        """
        backend = backend or program.backend
        key = (program.op_name, program.element_width, backend)
        if self._programs.get(key) is not program:
            self.control.install(program)
            self._programs[key] = program

    def adopt_kernel(self, cache_key: tuple[str, int, str],
                     kernel: FusedKernel) -> None:
        """Install an externally compiled fused kernel (see
        :meth:`adopt_program`); ``cache_key`` is ``(dag_hash, width,
        backend)``, matching :meth:`compile_expr`'s cache."""
        if self._fused.get(cache_key) is not kernel:
            self.control.install(kernel.program)
            self._fused[cache_key] = kernel

    def adopt_multi(self, cache_key: tuple[str, int, str],
                    kernel: MultiKernel) -> None:
        """Install an externally compiled multi-root kernel (see
        :meth:`adopt_program`); ``cache_key`` is ``(joint hash, width,
        backend)``, matching :meth:`compile_multi`'s cache."""
        if self._multi.get(cache_key) is not kernel:
            self.control.install(kernel.program)
            self._multi[cache_key] = kernel

    def register_operation(self, name: str, arity: int, build: BuildFn,
                           golden: GoldenFn, category: str = "user",
                           description: str = "user-defined operation",
                           **kwargs) -> OperationSpec:
        """Register a new operation (the paper's flexibility claim)."""
        return register_operation(name, arity, category, description,
                                  build, golden, **kwargs)

    @property
    def operations(self) -> list[str]:
        """Names of all currently registered operations."""
        return sorted(CATALOG)

    @property
    def kernel_cache_size(self) -> int:
        """Compiled kernels cached on this module (catalog µPrograms,
        fused single-root and multi-root kernels, plus the compiled
        executors engines have memoized on cached execution plans) —
        the telemetry the lazy engine and the serving layer report."""
        return (len(self._programs) + len(self._fused)
                + len(self._multi) + self.control.compiled_cache_size())

    def warm_executor(self, program: MicroProgram,
                      input_widths: "tuple[int, ...] | list[int]",
                      out_width: int,
                      engine: "str | ExecutionEngine" = "auto",
                      ) -> None:
        """Precompile the control unit's plan *and* the engine's
        compiled executor for the row layout a batched dispatch will
        use, without touching DRAM state.

        Mirrors :meth:`_map_batches`' block reservations (same widths,
        same order, first-fit) so a subsequent :meth:`map` /
        :meth:`map_expr` on an idle allocator binds the identical
        :class:`RowLayout` and hits the warmed cache entries — the
        serve layer's manifest warmup relies on this.
        """
        with contextlib.ExitStack() as stack:
            in_blocks = [stack.enter_context(self._allocator.reserve(w))
                         for w in input_widths]
            out_block = stack.enter_context(
                self._allocator.reserve(out_width))
            temp_block = (stack.enter_context(
                self._allocator.reserve(program.n_temp_rows))
                if program.n_temp_rows else None)
            bases = {Space.OUTPUT: out_block.base}
            for space, block in zip(INPUT_SPACES, in_blocks):
                bases[space] = block.base
            if temp_block is not None:
                bases[Space.TEMP] = temp_block.base
            self.control.warm_plan(program, RowLayout(bases),
                                   self.module.geometry, engine)

    # ------------------------------------------------------------------
    # data movement
    # ------------------------------------------------------------------
    def array(self, values, width: int, signed: bool = False) -> SimdramArray:
        """Place a host vector into DRAM in vertical layout."""
        values = np.asarray(values)
        if values.ndim != 1:
            raise OperationError("Simdram.array expects a 1-D vector")
        if len(values) > self.module.lanes:
            raise OperationError(
                f"{len(values)} elements exceed the module's "
                f"{self.module.lanes} SIMD lanes")
        block = self._allocator.alloc(width)
        self._announce(block, len(values), width)
        self.transposer.host_to_vertical(self.module, block, values, width)
        return SimdramArray(self, block, len(values), width, signed)

    def empty(self, n_elements: int, width: int,
              signed: bool = False) -> SimdramArray:
        """Allocate an uninitialized vertical vector (e.g. for outputs)."""
        block = self._allocator.alloc(width)
        self._announce(block, n_elements, width)
        return SimdramArray(self, block, n_elements, width, signed)

    def _announce(self, block: RowBlock, n_elements: int,
                  width: int) -> None:
        """Issue bbop_trsp_init so the transposition unit tracks the
        object (paper §4)."""
        instruction = BbopInstruction.decode(
            bbop_trsp_init(block.base, n_elements, width).encode())
        self.issued.append(instruction)
        self.tracker.register(block.base, n_elements, width)

    def read(self, array: SimdramArray) -> np.ndarray:
        """Read a vertical vector back into host (horizontal) layout."""
        array.require_live()
        return self.transposer.vertical_to_host(
            self.module, array.block, array.n_elements, array.width,
            signed=array.signed)

    def spill(self, array: SimdramArray,
              stats: CommandStats | None = None) -> np.ndarray:
        """Evict an array: read its values out and release its rows.

        The paging layer's eviction primitive.  The handle transitions
        to ``"evicted"`` (subsequent reads raise), its rows return to
        the allocator, and the returned host vector round-trips
        bit-exactly through :meth:`array` on fault-in.  ``stats``
        receives the spill accounting when provided.
        """
        array.require_live()
        values = self.transposer.spill(
            self.module, array.block, array.n_elements, array.width,
            signed=array.signed, stats=stats)
        self.tracker.release(array.block.base)
        self._allocator.free(array.block)
        array.status = "evicted"
        return values

    # ------------------------------------------------------------------
    # in-DRAM bulk copy / initialization (RowClone, paper §2)
    # ------------------------------------------------------------------
    def copy(self, array: SimdramArray,
             signed: bool | None = None) -> SimdramArray:
        """Bulk-copy a vector inside DRAM via RowClone.

        One AAP per bit row; no data crosses the channel — the mechanism
        SIMDRAM also uses for its shift operations.

        ``signed`` sets the result's signedness interpretation; the
        default (``None``) preserves the source's, since a bit-exact
        copy represents the same value under the same encoding.
        """
        self.tracker.lookup(array.block.base)
        array.require_live()
        out = self.empty(array.n_elements, array.width,
                         signed=array.signed if signed is None else signed)
        from repro.dram.rows import data_row
        for bit in range(array.width):
            self.module.broadcast_aap(data_row(array.block.base + bit),
                                      data_row(out.block.base + bit))
        return out

    def fill(self, value: int, n_elements: int, width: int,
             signed: bool = False) -> SimdramArray:
        """Initialize a vector to a broadcast constant inside DRAM.

        Each bit row is RowCloned from the C-group constant row matching
        that bit of ``value`` — bulk initialization with zero host I/O.
        """
        from repro.dram.rows import ctrl_row, data_row
        from repro.util.bitops import to_unsigned
        encoded = int(to_unsigned(np.array([value]), width)[0])
        out = self.empty(n_elements, width, signed=signed)
        for bit in range(width):
            source = ctrl_row((encoded >> bit) & 1)
            self.module.broadcast_aap(source,
                                      data_row(out.block.base + bit))
        return out

    def shift_left(self, array: SimdramArray, amount: int,
                   signed: bool | None = None) -> SimdramArray:
        """Elementwise logical left shift, entirely in DRAM (paper §2).

        In vertical layout a shift is pure row bookkeeping: bit row ``i``
        of the result is a RowClone copy of source bit row ``i - amount``,
        and the vacated low rows are RowCloned from the all-zeros control
        row.  No sense-amplifier computation happens at all.

        ``signed`` sets the result's signedness interpretation; the
        default (``None``) preserves the source's, because a left shift
        is multiplication by ``2**amount`` modulo ``2**width`` under
        *both* encodings — the bits don't care.
        """
        return self._shift(array, amount, left=True, signed=signed)

    def shift_right(self, array: SimdramArray, amount: int,
                    signed: bool | None = None) -> SimdramArray:
        """Elementwise right shift, entirely in DRAM — matching the
        operand's encoding (numpy ``>>`` semantics).

        On an **unsigned** source the vacated high bit rows are
        RowCloned from the all-zeros control row (logical shift).  On a
        **signed** source they are RowCloned from the source's *sign
        plane* — the bit row holding every element's sign bit — so
        negative values stay negative: an arithmetic shift costs the
        same one AAP per bit row as a logical one, the vacated rows
        just copy a data row instead of a control row.

        ``signed`` overrides the default operand-driven behaviour:
        ``signed=False`` forces a logical (zero-filling) shift with an
        unsigned result; ``signed=True`` forces an arithmetic
        (sign-filling) shift with a signed result.
        """
        arithmetic = array.signed if signed is None else signed
        return self._shift(array, amount, left=False,
                           signed=arithmetic, arithmetic=arithmetic)

    def _shift(self, array: SimdramArray, amount: int, left: bool,
               signed: bool | None = None,
               arithmetic: bool = False) -> SimdramArray:
        from repro.dram.rows import ctrl_row, data_row
        if amount < 0:
            raise OperationError(f"shift amount must be >= 0, "
                                 f"got {amount}")
        self.tracker.lookup(array.block.base)
        array.require_live()
        out = self.empty(array.n_elements, array.width,
                         signed=array.signed if signed is None else signed)
        sign_plane = data_row(array.block.base + array.width - 1)
        for bit in range(array.width):
            source_bit = bit - amount if left else bit + amount
            if 0 <= source_bit < array.width:
                source = data_row(array.block.base + source_bit)
            elif arithmetic and not left:
                source = sign_plane  # shifted-in copies of the sign bit
            else:
                source = ctrl_row(0)  # shifted-in zeros
            self.module.broadcast_aap(source,
                                      data_row(out.block.base + bit))
        return out

    # ------------------------------------------------------------------
    # execution (Step 3)
    # ------------------------------------------------------------------
    def run(self, op_name: str, *operands: SimdramArray,
            backend: str | None = None,
            engine: "str | ExecutionEngine" = "auto") -> SimdramArray:
        """Execute an operation over DRAM-resident operands.

        Forms the ``bbop`` instruction, round-trips it through the binary
        ISA encoding (as the memory controller would receive it), and
        replays the installed µProgram on every bank in lockstep.

        ``engine`` is an execution-engine registry name or an
        :class:`~repro.exec.engines.ExecutionEngine` instance (see
        :func:`repro.exec.engines.list_engines`); ``"auto"`` picks the
        best available plan-based engine unless tracing or fault
        injection forces the per-bank slow path.  Scratch rows are
        reserved with a
        ``try``/``finally`` guarantee: a failing execution releases its
        temporary block *and* the output allocation instead of leaking
        them.
        """
        spec = get_operation(op_name)
        if len(operands) != spec.arity:
            raise OperationError(
                f"{op_name} takes {spec.arity} operands, "
                f"got {len(operands)}")
        width = operands[-1].width
        expected_widths = spec.in_widths(width)
        for i, (operand, expected) in enumerate(zip(operands,
                                                    expected_widths)):
            if operand.width != expected:
                raise OperationError(
                    f"{op_name} operand {i} must be {expected}-bit, "
                    f"got {operand.width}-bit")
        n_elements = operands[0].n_elements
        if any(o.n_elements != n_elements for o in operands):
            raise OperationError(
                f"{op_name}: operand lengths differ: "
                f"{[o.n_elements for o in operands]}")
        for operand in operands:
            # The control unit only computes on announced vertical
            # objects; the tracker catches stale base rows, and
            # require_live catches freed handles whose rows were
            # re-allocated (the tracker would find the new occupant).
            self.tracker.lookup(operand.block.base)
            operand.require_live()

        program = self.compile(op_name, width, backend)
        out = self.empty(n_elements, spec.out_width(width),
                         signed=spec.signed)
        return self._dispatch(program, operands, out, n_elements,
                              engine=engine)

    def _dispatch(self, program: MicroProgram,
                  operands: tuple[SimdramArray, ...], out: SimdramArray,
                  n_elements: int,
                  engine: "str | ExecutionEngine") -> SimdramArray:
        """Issue one installed µProgram over DRAM-resident operands.

        Forms the ``bbop`` instruction, round-trips it through the
        binary ISA encoding, reserves the program's scratch rows and
        replays it on every bank.  A failing execution releases its
        temporary block *and* the output allocation instead of leaking
        them.
        """
        try:
            temp_reservation = (
                self._allocator.reserve(program.n_temp_rows)
                if program.n_temp_rows else contextlib.nullcontext(None))
            with temp_reservation as temp_block:
                # Form, encode and decode the bbop instruction (ISA
                # round trip).
                instruction = BbopInstruction.decode(bbop(
                    program.op_name, dst=out.block.base,
                    srcs=[o.block.base for o in operands],
                    n_elements=n_elements,
                    element_width=program.element_width).encode())
                self.issued.append(instruction)

                bases = {Space.OUTPUT: instruction.dst}
                instr_srcs = (instruction.src0, instruction.src1,
                              instruction.src2)
                for space, base in zip(INPUT_SPACES,
                                       instr_srcs[:len(operands)]):
                    bases[space] = base
                if temp_block is not None:
                    bases[Space.TEMP] = temp_block.base
                layout = RowLayout(bases)

                key = ProgramKey(program.op_name, program.element_width,
                                 program.backend)
                with obs_span("engine.execute", op=program.op_name,
                              width=program.element_width,
                              engine=str(getattr(engine, "name", engine))):
                    self.last_stats = self.control.execute_on_module(
                        self.control.lookup(key), self.module, layout,
                        engine=engine)
        except BaseException:
            out.free()
            raise
        return out

    def run_expr(self, root: Expr, feeds: dict[str, SimdramArray],
                 *, width: int | None = None, backend: str | None = None,
                 engine: "str | ExecutionEngine" = "auto") -> SimdramArray:
        """Execute a whole expression DAG as **one** fused µProgram.

        ``feeds`` binds every input leaf of ``root`` to a DRAM-resident
        array.  The pipeline width defaults to the widest operand (pass
        ``width`` explicitly for pipelines whose operands are all
        narrower than the element width, e.g. an ``if_else`` fed only
        1-bit arrays).  Intermediate values never touch named row
        blocks: the whole DAG replays as a single command stream with
        one output allocation and one temp reservation.
        """
        if width is None:
            if not feeds:
                raise OperationError(
                    "run_expr needs at least one input array")
            width = max(array.width for array in feeds.values())
        kernel = self.compile_expr(root, width, backend)
        self._check_feed_names(kernel, feeds)
        operands = tuple(feeds[name] for name in kernel.input_names)
        for name, operand, expected in zip(kernel.input_names, operands,
                                           kernel.input_widths):
            if operand.width != expected:
                raise OperationError(
                    f"fused input {name!r} must be {expected}-bit, "
                    f"got {operand.width}-bit")
        n_elements = operands[0].n_elements
        if any(o.n_elements != n_elements for o in operands):
            raise OperationError(
                f"fused expression: operand lengths differ: "
                f"{[o.n_elements for o in operands]}")
        for operand in operands:
            self.tracker.lookup(operand.block.base)
            operand.require_live()
        out = self.empty(n_elements, kernel.out_width,
                         signed=kernel.signed)
        return self._dispatch(kernel.program, operands, out, n_elements,
                              engine=engine)

    def run_multi(self, roots: dict[str, Expr],
                  feeds: dict[str, SimdramArray], *,
                  width: int | None = None, backend: str | None = None,
                  engine: "str | ExecutionEngine" = "auto") -> dict[str, np.ndarray]:
        """Execute several expression roots as **one** fused µProgram.

        All roots share one input pool (at most three DRAM-resident
        leaves) and one packed output allocation: a single ``bbop``
        dispatch computes every root, and each root's bit slice is read
        back through the transposition unit.  Returns a mapping from
        root name to its host vector (decoded per the root operation's
        signedness).  Shared subexpressions between roots are computed
        once — the stitched circuit dedups them structurally.
        """
        if not roots:
            raise OperationError("run_multi needs at least one root")
        if width is None:
            if not feeds:
                raise OperationError(
                    "run_multi needs at least one input array")
            width = max(array.width for array in feeds.values())
        kernel = self.compile_multi(roots, width, backend)
        return self.run_multi_kernel(kernel, feeds, engine=engine)

    def run_multi_kernel(self, kernel: MultiKernel,
                         feeds: dict[str, SimdramArray], *,
                         engine: "str | ExecutionEngine" = "auto") -> dict[str, np.ndarray]:
        """Dispatch an already-compiled :class:`MultiKernel` (the entry
        the cluster runtime uses after :meth:`adopt_multi`)."""
        self._check_feed_names(kernel, feeds)
        operands = tuple(feeds[name] for name in kernel.input_names)
        for name, operand, expected in zip(kernel.input_names, operands,
                                           kernel.input_widths):
            if operand.width != expected:
                raise OperationError(
                    f"fused input {name!r} must be {expected}-bit, "
                    f"got {operand.width}-bit")
        n_elements = operands[0].n_elements
        if any(o.n_elements != n_elements for o in operands):
            raise OperationError(
                f"fused expression: operand lengths differ: "
                f"{[o.n_elements for o in operands]}")
        for operand in operands:
            self.tracker.lookup(operand.block.base)
            operand.require_live()

        program = kernel.program
        results: dict[str, np.ndarray] = {}
        with contextlib.ExitStack() as stack:
            out_block = stack.enter_context(
                self._allocator.reserve(kernel.total_out_width))
            temp_block = (stack.enter_context(
                self._allocator.reserve(program.n_temp_rows))
                if program.n_temp_rows else None)
            self._announce(out_block, n_elements, out_block.width)
            stack.callback(self.tracker.release, out_block.base)

            instruction = BbopInstruction.decode(bbop(
                program.op_name, dst=out_block.base,
                srcs=[o.block.base for o in operands],
                n_elements=n_elements,
                element_width=program.element_width).encode())
            self.issued.append(instruction)

            bases = {Space.OUTPUT: out_block.base}
            instr_srcs = (instruction.src0, instruction.src1,
                          instruction.src2)
            for space, base in zip(INPUT_SPACES,
                                   instr_srcs[:len(operands)]):
                bases[space] = base
            if temp_block is not None:
                bases[Space.TEMP] = temp_block.base
            layout = RowLayout(bases)
            with obs_span("engine.execute", op=program.op_name,
                          width=program.element_width,
                          engine=str(getattr(engine, "name", engine))):
                self.last_stats = self.control.execute_on_module(
                    program, self.module, layout, engine=engine)

            for name, (offset, out_width) in kernel.slices.items():
                view = RowBlock(out_block.base + offset, out_width)
                results[name] = self.transposer.vertical_to_host(
                    self.module, view, n_elements, out_width,
                    signed=kernel.signed[name])
        return results

    @staticmethod
    def _check_feed_names(kernel: "FusedKernel | MultiKernel",
                          feeds: dict) -> None:
        missing = set(kernel.input_names) - set(feeds)
        extra = set(feeds) - set(kernel.input_names)
        if missing or extra:
            raise OperationError(
                f"fused expression inputs are {sorted(kernel.input_names)}"
                + (f"; missing {sorted(missing)}" if missing else "")
                + (f"; unexpected {sorted(extra)}" if extra else ""))

    # ------------------------------------------------------------------
    # streaming execution over host vectors of any length
    # ------------------------------------------------------------------
    def map(self, op_name: str, *host_operands, width: int = 8,
            backend: str | None = None,
            engine: "str | ExecutionEngine" = "auto") -> np.ndarray:
        """Run an operation over host vectors of arbitrary length.

        Vectors longer than the module's SIMD lanes are processed in
        lane-sized batches, the paper's execution model for large
        inputs.  The operand, output and temporary row blocks are
        allocated *once* and reused across batches (each batch's
        transpose-in overwrites every row of every operand block), so
        per-batch work is transpose-in, replay, transpose-out — no
        alloc/free churn, and the control unit's plan cache hits on
        every batch after the first because the row layout is stable.
        All rows are released when the sweep finishes or fails.

        ``width`` is the element width in bits; operands with a
        fixed-width interface (e.g. ``if_else``'s 1-bit select) are
        sized per the operation's spec automatically.  Host values are
        encoded as ``width``-bit two's complement on the way in, so
        negative inputs work with the signed operations directly; the
        result's signedness follows the operation's spec.
        """
        spec = get_operation(op_name)
        if len(host_operands) != spec.arity:
            raise OperationError(
                f"{op_name} takes {spec.arity} operands, "
                f"got {len(host_operands)}")
        vectors = [np.asarray(values) for values in host_operands]
        n_total = len(vectors[0])
        if any(len(v) != n_total for v in vectors):
            raise OperationError(
                f"{op_name}: operand lengths differ: "
                f"{[len(v) for v in vectors]}")
        if n_total == 0:
            raise OperationError("map needs at least one element")

        program = self.compile(op_name, width, backend)
        return self._map_batches(program, vectors, spec.in_widths(width),
                                 spec.out_width(width), spec.signed,
                                 engine)

    def _map_batches(self, program: MicroProgram,
                     vectors: list["np.ndarray"],
                     input_widths: "tuple[int, ...] | list[int]",
                     out_width: int, signed: bool,
                     engine: "str | ExecutionEngine") -> np.ndarray:
        """The shared batching loop of :meth:`map` and :meth:`map_expr`.

        Reserves the operand/output/temporary row blocks *once* and
        reuses them across lane-sized batches, so per-batch work is
        transpose-in, replay, transpose-out and the control unit's plan
        cache hits from batch 2 on.  All rows are released when the
        sweep finishes or fails (the PR-1 leak-class guarantee lives
        here, in exactly one place).
        """
        n_total = len(vectors[0])
        lanes = self.module.lanes

        chunks = []
        with contextlib.ExitStack() as stack:
            in_blocks = [stack.enter_context(self._allocator.reserve(w))
                         for w in input_widths]
            out_block = stack.enter_context(
                self._allocator.reserve(out_width))
            temp_block = (stack.enter_context(
                self._allocator.reserve(program.n_temp_rows))
                if program.n_temp_rows else None)
            # Announce each reused vertical object once (bbop_trsp_init),
            # not once per batch, and drop it from the tracker on exit.
            for block in (*in_blocks, out_block):
                self._announce(block, min(lanes, n_total), block.width)
                stack.callback(self.tracker.release, block.base)

            bases = {Space.OUTPUT: out_block.base}
            for space, block in zip(INPUT_SPACES, in_blocks):
                bases[space] = block.base
            if temp_block is not None:
                bases[Space.TEMP] = temp_block.base
            layout = RowLayout(bases)

            for start in range(0, n_total, lanes):
                stop = min(start + lanes, n_total)
                for values, block, in_width in zip(vectors, in_blocks,
                                                   input_widths):
                    self.transposer.host_to_vertical(
                        self.module, block, values[start:stop], in_width)
                instruction = BbopInstruction.decode(bbop(
                    program.op_name, dst=out_block.base,
                    srcs=[block.base for block in in_blocks],
                    n_elements=stop - start,
                    element_width=program.element_width).encode())
                self.issued.append(instruction)
                with obs_span("engine.execute", op=program.op_name,
                              width=program.element_width,
                              n_elements=stop - start,
                              engine=str(getattr(engine, "name", engine))):
                    self.last_stats = self.control.execute_on_module(
                        program, self.module, layout, engine=engine)
                chunks.append(self.transposer.vertical_to_host(
                    self.module, out_block, stop - start, out_width,
                    signed=signed))
        return np.concatenate(chunks)

    def map_expr(self, root: Expr, feeds: dict[str, "np.ndarray"],
                 *, width: int = 8, backend: str | None = None,
                 engine: "str | ExecutionEngine" = "auto") -> np.ndarray:
        """Run a fused expression DAG over host vectors of any length.

        The fused analogue of :meth:`map`: vectors longer than the
        module's SIMD lanes are processed in lane-sized batches, with
        the operand, output and temporary row blocks allocated *once*
        and reused across batches.  Because the whole DAG is one
        µProgram, each batch is transpose-in, one replay, transpose-out
        — no per-operation intermediates exist at all.  Host values are
        encoded as two's complement at each leaf's width; the result's
        signedness follows the root operation's spec.
        """
        kernel = self.compile_expr(root, width, backend)
        self._check_feed_names(kernel, feeds)
        vectors = [np.asarray(feeds[name]) for name in kernel.input_names]
        n_total = len(vectors[0])
        if any(len(v) != n_total for v in vectors):
            raise OperationError(
                f"fused expression: operand lengths differ: "
                f"{[len(v) for v in vectors]}")
        if n_total == 0:
            raise OperationError("map_expr needs at least one element")
        return self._map_batches(kernel.program, vectors,
                                 kernel.input_widths, kernel.out_width,
                                 kernel.signed, engine)

    # ------------------------------------------------------------------
    # measurement helpers
    # ------------------------------------------------------------------
    def last_latency_ns(self) -> float:
        """Latency of the last run (banks operate in parallel)."""
        if self.last_stats is None:
            raise OperationError("no operation has been run yet")
        per_bank = self.last_stats.scaled(1)
        # All banks execute the same stream concurrently; latency is the
        # single-bank command latency.
        banks = self.config.geometry.banks
        return CommandStats(
            n_ap=per_bank.n_ap // banks,
            n_aap=per_bank.n_aap // banks,
        ).latency_ns(self.config.timing)

    def last_energy_nj(self) -> float:
        """DRAM energy of the last run (all banks)."""
        if self.last_stats is None:
            raise OperationError("no operation has been run yet")
        return self.last_stats.energy_nj(
            self.config.timing, self.config.geometry, self.config.energy)
