"""DC operating point: the nonlinear-Poisson thermal-equilibrium solve.

The paper's structures are passive (no DC bias), so the operating point
is thermal equilibrium: carrier densities follow the Boltzmann relations
``n = ni exp(V/VT)``, ``p = ni exp(-V/VT)`` and the potential solves the
nonlinear Poisson equation

    div(eps grad V) + q (p(V) - n(V) + N_net) = 0

with ohmic metal-semiconductor contacts pinned at the charge-neutral
equilibrium potential.  The damped Newton-Raphson here is the nonlinear
solve of the paper's eq. (8) specialized to zero bias; every stochastic
sample re-runs it because the RDF perturbation changes ``N_net`` and the
geometric perturbation changes the FVM coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.constants import Q
from repro.em.operators import (
    cell_property_array,
    link_weighted_coefficients,
    scalar_laplacian,
)
from repro.errors import MaterialError
from repro.geometry.structure import Structure
from repro.materials.doping import DopingProfile
from repro.materials.physics import (
    equilibrium_carriers,
    equilibrium_potential,
)
from repro.materials.material import Semiconductor
from repro.mesh.dual import GridGeometry, node_masked_volumes
from repro.solver.newton import NewtonOptions, damped_newton


@dataclass
class EquilibriumState:
    """The DC operating point the AC system linearizes around.

    All nodal arrays are in flat node order; carrier arrays are zero
    outside the carrier (semiconductor + ohmic-contact) node set.
    """

    potential: np.ndarray
    n0: np.ndarray
    p0: np.ndarray
    net_doping: np.ndarray
    carrier_mask: np.ndarray
    semi_node_volumes: np.ndarray
    vt: float
    ni: float
    iterations: int

    @property
    def has_semiconductor(self) -> bool:
        return bool(np.any(self.carrier_mask))


def node_net_doping(structure: Structure,
                    doping_profile: DopingProfile = None) -> np.ndarray:
    """Net doping at every node, honouring an optional profile override.

    The override is how one RDF sample enters a deterministic solve: the
    stochastic driver passes the perturbed
    :class:`~repro.materials.doping.NodePerturbedDoping`.
    """
    if doping_profile is None:
        return structure.net_doping_at_nodes()
    kinds = structure.node_kinds()
    mask = kinds.semiconductor | kinds.ohmic_contact
    values = np.zeros(structure.grid.num_nodes, dtype=float)
    if np.any(mask):
        coords = structure.grid.node_coords()
        values[mask] = doping_profile.net_doping(coords)[mask]
    return values


def solve_equilibrium(structure: Structure, geometry: GridGeometry,
                      doping_profile: DopingProfile = None,
                      newton_options: NewtonOptions = None,
                      initial_guess: EquilibriumState = None,
                      ) -> EquilibriumState:
    """Solve the zero-bias operating point on (possibly perturbed)
    ``geometry``.

    ``initial_guess`` is an optional nearby solved state, typically the
    nominal equilibrium.  Newton then starts from its potential with
    each carrier node shifted by the change of the local charge-neutral
    potential from the guess's doping to this sample's, so the guess
    brings its depletion layers and the sample its own bulk.  Without
    a guess, or when the guess has another node count or no
    semiconductor, Newton starts from the charge-neutral potential.

    Returns a trivial all-zero state when the structure contains no
    semiconductor (the capacitance-only fast path).
    """
    grid = structure.grid
    kinds = structure.node_kinds()
    carrier_mask = kinds.semiconductor | kinds.ohmic_contact
    num_nodes = grid.num_nodes

    if not np.any(carrier_mask):
        zeros = np.zeros(num_nodes)
        return EquilibriumState(
            potential=zeros, n0=zeros.copy(), p0=zeros.copy(),
            net_doping=zeros.copy(), carrier_mask=carrier_mask,
            semi_node_volumes=zeros.copy(),
            vt=0.0, ni=0.0, iterations=0)

    material = structure.primary_semiconductor()
    if not isinstance(material, Semiconductor):
        raise MaterialError("primary semiconductor lookup failed")
    from repro.constants import thermal_voltage
    vt = thermal_voltage(material.temperature)
    ni = material.ni

    net_doping = node_net_doping(structure, doping_profile)

    eps_cells = cell_property_array(structure, lambda m: m.permittivity)
    g_eps = (link_weighted_coefficients(geometry, eps_cells)
             / geometry.link_lengths)
    laplacian = scalar_laplacian(geometry, g_eps)

    _, semi_cells, _ = structure.cell_kind_masks()
    semi_volumes = node_masked_volumes(geometry, semi_cells)

    # Dirichlet: all metal nodes.  Ohmic contacts sit at the local
    # charge-neutral equilibrium potential; isolated metals at 0.
    dirichlet_mask = kinds.metal
    dirichlet_values = np.zeros(num_nodes)
    ohmic = kinds.ohmic_contact
    dirichlet_values[ohmic] = equilibrium_potential(
        net_doping[ohmic], ni, vt)

    free = ~dirichlet_mask
    free_ids = np.nonzero(free)[0]
    lap_ff = laplacian[free_ids][:, free_ids].tocsr()
    rhs_dirichlet = laplacian[free_ids][:, np.nonzero(dirichlet_mask)[0]] \
        @ dirichlet_values[dirichlet_mask]

    carrier_free = carrier_mask[free]
    doping_free = net_doping[free]
    volumes_free = semi_volumes[free]

    def residual_jacobian(v_free):
        residual = lap_ff @ v_free + rhs_dirichlet
        charge_slope = np.zeros_like(v_free)
        if np.any(carrier_free):
            n, p = equilibrium_carriers(v_free[carrier_free], ni, vt)
            rho = Q * (p - n + doping_free[carrier_free])
            residual = residual.copy()
            residual[carrier_free] += rho * volumes_free[carrier_free]
            charge_slope[carrier_free] = (-Q * (n + p) / vt
                                          * volumes_free[carrier_free])
        jacobian = lap_ff + sp.diags(charge_slope)
        return residual, jacobian

    if newton_options is None:
        # Potential updates capped at ~40 thermal voltages: large enough
        # to cross a junction in a few steps, small enough to stay on
        # the Boltzmann exponential's representable range.
        newton_options = NewtonOptions(max_iterations=60,
                                       update_tolerance=1e-10,
                                       max_step=1.0)

    v0_free = np.where(carrier_free,
                       equilibrium_potential(doping_free, ni, vt), 0.0)
    if (initial_guess is not None
            and initial_guess.potential.shape == (num_nodes,)
            and initial_guess.has_semiconductor):
        guess_free = initial_guess.potential[free]
        guess_carriers = initial_guess.carrier_mask[free]
        guess_neutral = np.where(
            guess_carriers,
            equilibrium_potential(initial_guess.net_doping[free], ni, vt),
            0.0)
        v0_free = v0_free + guess_free - guess_neutral
    v_free, iterations = damped_newton(residual_jacobian, v0_free,
                                       newton_options)

    potential = dirichlet_values.copy()
    potential[free] = v_free
    n0 = np.zeros(num_nodes)
    p0 = np.zeros(num_nodes)
    n0[carrier_mask], p0[carrier_mask] = equilibrium_carriers(
        potential[carrier_mask], ni, vt)
    return EquilibriumState(
        potential=potential, n0=n0, p0=p0, net_doping=net_doping,
        carrier_mask=carrier_mask, semi_node_volumes=semi_volumes,
        vt=vt, ni=ni, iterations=iterations)
