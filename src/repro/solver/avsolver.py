"""The user-facing coupled A-V solver facade.

One :class:`AVSolver` instance owns a structure and a frequency and
solves deterministic samples: the nominal geometry, a perturbed-grid
sample from the variation models, and/or a perturbed doping profile.
The link topology and nominal geometry are cached so thousands of
stochastic samples share the expensive invariants.

Per *sample* (one geometry + doping pair) the solver additionally
caches the DC equilibrium and the assembled :class:`ACSystem`, which in
turn caches one LU factorization per pinned-contact set.  Repeated
solves on the same sample — per-port drives, full-wave correction
passes, repeated QoI extractions — therefore skip the Newton
equilibrium, the 3N x 3N assembly and the factorization entirely;
:meth:`AVSolver.solve_ports` solves all port drives as one multi-RHS
pass.

The nominal equilibrium is solved once (from the charge-neutral guess)
and kept: every perturbed sample's Newton iteration starts from it.
Seeding from the nominal only, never from the previous sample, keeps
each sample a pure function of its inputs, so results do not depend
on evaluation order, chunking or worker count.
"""

from __future__ import annotations


from repro.errors import GeometryError
from repro.geometry.structure import Structure
from repro.materials.doping import DopingProfile
from repro.mesh.dual import GridGeometry, compute_geometry
from repro.mesh.entities import LinkSet
from repro.mesh.perturbed import PerturbedGrid
from repro.solver.ac import ACSolution, ACSystem
from repro.solver.ampere import AmpereSystem, staggered_correction
from repro.solver.backends import resolve_backend
from repro.solver.dc import EquilibriumState, solve_equilibrium


class AVSolver:
    """Coupled frequency-domain EM-semiconductor solver.

    Parameters
    ----------
    structure:
        The material layout (see :mod:`repro.geometry.builders`).
    frequency:
        Excitation frequency [Hz] (the paper uses 1e9).
    recombination:
        Include SRH recombination in the carrier equations.
    full_wave:
        Run the Ampere vector-potential pass and re-solve with the
        induced EMF (eq. 3 coupling); off by default because the
        correction is negligible at 1 GHz on micrometre structures.
    backend:
        Linear-solver backend designation (see
        :mod:`repro.solver.backends`).  Resolved *once* here and shared
        by every sample's :class:`ACSystem`, so a stateful backend
        (``"krylov"``) can precondition sample ``m`` with sample
        ``m-1``'s factorization.

    Example
    -------
    >>> from repro.geometry import build_metalplug_structure
    >>> solver = AVSolver(build_metalplug_structure(), frequency=1e9)
    >>> solution = solver.solve({"plug1": 1.0, "plug2": 0.0})
    """

    def __init__(self, structure: Structure, frequency: float,
                 recombination: bool = True, full_wave: bool = False,
                 backend=None):
        if frequency <= 0.0:
            raise GeometryError(
                f"frequency must be positive, got {frequency}")
        self.structure = structure
        self.frequency = float(frequency)
        self.recombination = recombination
        self.full_wave = full_wave
        self._backend = resolve_backend(backend)
        self.links = LinkSet(structure.grid)
        self._nominal_geometry = None
        self._ampere = None
        # One-sample cache: (geometry arg, doping arg, ACSystem).  Keyed
        # by *object identity* of the sample arguments — a new perturbed
        # grid or doping profile is a new sample; re-solving the same
        # objects (sweeps, per-port drives, full-wave passes) reuses the
        # equilibrium, the assembly and the cached factorizations.
        self._sample_cache = None
        self._nominal_equilibrium = None

    # ------------------------------------------------------------------
    @property
    def nominal_geometry(self) -> GridGeometry:
        """FVM geometry of the unperturbed grid (cached)."""
        if self._nominal_geometry is None:
            self._nominal_geometry = compute_geometry(
                self.structure.grid, links=self.links)
        return self._nominal_geometry

    def nominal_equilibrium(self) -> EquilibriumState:
        """DC equilibrium of the unperturbed sample (solved once)."""
        if self._nominal_equilibrium is None:
            self._nominal_equilibrium = solve_equilibrium(
                self.structure, self.nominal_geometry)
        return self._nominal_equilibrium

    def geometry_for(self, sample) -> GridGeometry:
        """Resolve a geometry argument.

        ``sample`` may be ``None`` (nominal), a
        :class:`~repro.mesh.perturbed.PerturbedGrid`, or a ready
        :class:`~repro.mesh.dual.GridGeometry`.
        """
        if sample is None:
            return self.nominal_geometry
        if isinstance(sample, PerturbedGrid):
            return sample.geometry()
        if isinstance(sample, GridGeometry):
            return sample
        raise GeometryError(
            f"cannot interpret geometry sample of type {type(sample)!r}")

    # ------------------------------------------------------------------
    def system_for(self, geometry=None,
                   doping_profile: DopingProfile = None) -> ACSystem:
        """The assembled :class:`ACSystem` of one sample (cached).

        The cache holds the most recent sample, identified by object
        identity of the ``geometry`` and ``doping_profile`` arguments;
        passing a different perturbed grid or doping sample invalidates
        it and triggers a fresh equilibrium solve and assembly.
        """
        cached = self._sample_cache
        if (cached is not None and cached[0] is geometry
                and cached[1] is doping_profile):
            return cached[2]
        grid_geometry = self.geometry_for(geometry)
        if geometry is None and doping_profile is None:
            equilibrium = self.nominal_equilibrium()
        else:
            equilibrium = solve_equilibrium(
                self.structure, grid_geometry,
                doping_profile=doping_profile,
                initial_guess=self.nominal_equilibrium())
        system = ACSystem(self.structure, grid_geometry, equilibrium,
                          self.frequency,
                          recombination=self.recombination,
                          backend=self._backend)
        self._sample_cache = (geometry, doping_profile, system)
        return system

    # ------------------------------------------------------------------
    def solve(self, excitations: dict, geometry=None,
              doping_profile: DopingProfile = None) -> ACSolution:
        """Solve one deterministic sample.

        Parameters
        ----------
        excitations:
            Mapping ``contact name -> complex voltage phasor``.
        geometry:
            Optional perturbed grid / geometry (default: nominal).
        doping_profile:
            Optional RDF doping sample (default: structure doping).
        """
        system = self.system_for(geometry, doping_profile)
        solution = system.solve(excitations)
        if self.full_wave:
            solution = self._full_wave_pass(system, solution)
        return solution

    def solve_ports(self, ports, geometry=None,
                    doping_profile: DopingProfile = None) -> list:
        """Solve all unit port drives of one sample in a single batch.

        One equilibrium, one assembly, one LU factorization and one
        multi-RHS solve cover every port; see
        :meth:`ACSystem.solve_ports`.  Returns one
        :class:`ACSolution` per port, in ``ports`` order.
        """
        system = self.system_for(geometry, doping_profile)
        solutions = system.solve_ports(ports)
        if self.full_wave:
            solutions = [self._full_wave_pass(system, solution)
                         for solution in solutions]
        return solutions

    # ------------------------------------------------------------------
    def _full_wave_pass(self, system: ACSystem,
                        solution: ACSolution) -> ACSolution:
        """One staggered Ampere iteration (see solver.ampere)."""
        if self._ampere is None:
            self._ampere = AmpereSystem(self.structure,
                                        self.nominal_geometry,
                                        backend=self._backend)
        return staggered_correction(system, self._ampere, solution)
