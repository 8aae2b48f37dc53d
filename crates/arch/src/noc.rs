//! Network-on-chip model: 2-D mesh with XY (dimension-ordered) routing.
//!
//! The paper's results assume zero-cost data movement ("the costs associated
//! with data movement have not been differentiated yet", Sec. V-C) but name
//! NoC cost modelling as future work. This module provides the geometry and
//! per-hop cost hooks that the scheduler and simulator use for that
//! extension; with `hop_latency_cycles == 0` it degenerates to the paper's
//! peak-performance assumption.

use serde::{Deserialize, Serialize};

use crate::error::{ArchError, Result};
use crate::tile::TileId;

/// Position of a tile in the 2-D mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TileCoord {
    /// Mesh row.
    pub row: usize,
    /// Mesh column.
    pub col: usize,
}

impl std::fmt::Display for TileCoord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.row, self.col)
    }
}

/// Specification of the tile interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NocSpec {
    /// Mesh rows.
    pub mesh_rows: usize,
    /// Mesh columns.
    pub mesh_cols: usize,
    /// Latency of one mesh hop in crossbar cycles. `0` reproduces the
    /// paper's zero-cost data-movement assumption.
    pub hop_latency_cycles: u64,
    /// Energy of moving one byte across one hop, in picojoule.
    pub hop_energy_pj_per_byte: f64,
}

impl NocSpec {
    /// A square mesh just large enough for `tiles` tiles, with zero-cost
    /// hops (the paper's default assumption).
    pub fn square_for(tiles: usize) -> Self {
        let side = (tiles as f64).sqrt().ceil().max(1.0) as usize;
        Self {
            mesh_rows: side,
            mesh_cols: side,
            hop_latency_cycles: 0,
            hop_energy_pj_per_byte: 1.0,
        }
    }

    /// Validates the specification.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidSpec`] for an empty mesh.
    pub fn validate(&self) -> Result<()> {
        if self.mesh_rows == 0 || self.mesh_cols == 0 {
            return Err(ArchError::InvalidSpec {
                what: "noc",
                detail: format!(
                    "mesh must be non-empty, got {}x{}",
                    self.mesh_rows, self.mesh_cols
                ),
            });
        }
        Ok(())
    }

    /// Number of mesh positions.
    pub const fn capacity(&self) -> usize {
        self.mesh_rows * self.mesh_cols
    }

    /// Mesh coordinate of tile `t` (row-major placement).
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::UnknownUnit`] when the tile does not fit the mesh.
    pub fn coord(&self, t: TileId) -> Result<TileCoord> {
        let i = t.index();
        if i >= self.capacity() {
            return Err(ArchError::UnknownUnit {
                kind: "tile",
                id: t.0,
            });
        }
        Ok(TileCoord {
            row: i / self.mesh_cols,
            col: i % self.mesh_cols,
        })
    }

    /// Manhattan hop count between two tiles under XY routing.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::UnknownUnit`] when either tile does not fit.
    pub fn hops(&self, a: TileId, b: TileId) -> Result<usize> {
        let ca = self.coord(a)?;
        let cb = self.coord(b)?;
        Ok(ca.row.abs_diff(cb.row) + ca.col.abs_diff(cb.col))
    }

    /// XY route from `a` to `b` as the sequence of intermediate coordinates
    /// (exclusive of `a`, inclusive of `b`): first along the row (X), then
    /// along the column (Y).
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::UnknownUnit`] when either tile does not fit.
    pub fn xy_route(&self, a: TileId, b: TileId) -> Result<Vec<TileCoord>> {
        let ca = self.coord(a)?;
        let cb = self.coord(b)?;
        let mut path = Vec::with_capacity(self.hops(a, b)?);
        let mut cur = ca;
        while cur.col != cb.col {
            cur.col = if cur.col < cb.col {
                cur.col + 1
            } else {
                cur.col - 1
            };
            path.push(cur);
        }
        while cur.row != cb.row {
            cur.row = if cur.row < cb.row {
                cur.row + 1
            } else {
                cur.row - 1
            };
            path.push(cur);
        }
        Ok(path)
    }
}

impl Default for NocSpec {
    fn default() -> Self {
        Self::square_for(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn square_mesh_sizing() {
        assert_eq!(NocSpec::square_for(1).capacity(), 1);
        assert_eq!(NocSpec::square_for(16).capacity(), 16);
        assert_eq!(NocSpec::square_for(17).capacity(), 25);
        NocSpec::square_for(17).validate().unwrap();
    }

    #[test]
    fn coords_are_row_major() {
        let n = NocSpec {
            mesh_rows: 2,
            mesh_cols: 3,
            ..NocSpec::default()
        };
        assert_eq!(n.coord(TileId(0)).unwrap(), TileCoord { row: 0, col: 0 });
        assert_eq!(n.coord(TileId(2)).unwrap(), TileCoord { row: 0, col: 2 });
        assert_eq!(n.coord(TileId(3)).unwrap(), TileCoord { row: 1, col: 0 });
        assert!(n.coord(TileId(6)).is_err());
    }

    #[test]
    fn manhattan_hops() {
        let n = NocSpec {
            mesh_rows: 4,
            mesh_cols: 4,
            ..NocSpec::default()
        };
        assert_eq!(n.hops(TileId(0), TileId(0)).unwrap(), 0);
        assert_eq!(n.hops(TileId(0), TileId(3)).unwrap(), 3);
        assert_eq!(n.hops(TileId(0), TileId(15)).unwrap(), 6);
        assert_eq!(n.hops(TileId(5), TileId(10)).unwrap(), 2);
    }

    #[test]
    fn xy_route_goes_x_first() {
        let n = NocSpec {
            mesh_rows: 3,
            mesh_cols: 3,
            ..NocSpec::default()
        };
        // (0,0) -> (2,2): X to col 2, then Y to row 2.
        let route = n.xy_route(TileId(0), TileId(8)).unwrap();
        assert_eq!(
            route,
            vec![
                TileCoord { row: 0, col: 1 },
                TileCoord { row: 0, col: 2 },
                TileCoord { row: 1, col: 2 },
                TileCoord { row: 2, col: 2 },
            ]
        );
        assert!(n.xy_route(TileId(4), TileId(4)).unwrap().is_empty());
    }

    #[test]
    fn empty_mesh_rejected() {
        assert!(NocSpec {
            mesh_rows: 0,
            mesh_cols: 3,
            ..NocSpec::default()
        }
        .validate()
        .is_err());
    }

    proptest! {
        /// Hop count is a metric: symmetric, zero iff equal, triangle holds.
        #[test]
        fn prop_hops_is_a_metric(a in 0u32..36, b in 0u32..36, c in 0u32..36) {
            let n = NocSpec { mesh_rows: 6, mesh_cols: 6, ..NocSpec::default() };
            let ab = n.hops(TileId(a), TileId(b)).unwrap();
            let ba = n.hops(TileId(b), TileId(a)).unwrap();
            prop_assert_eq!(ab, ba);
            prop_assert_eq!(ab == 0, a == b);
            let ac = n.hops(TileId(a), TileId(c)).unwrap();
            let cb = n.hops(TileId(c), TileId(b)).unwrap();
            prop_assert!(ab <= ac + cb);
        }

        /// The XY route length equals the hop count.
        #[test]
        fn prop_route_length_is_hops(a in 0u32..36, b in 0u32..36) {
            let n = NocSpec { mesh_rows: 6, mesh_cols: 6, ..NocSpec::default() };
            let route = n.xy_route(TileId(a), TileId(b)).unwrap();
            prop_assert_eq!(route.len(), n.hops(TileId(a), TileId(b)).unwrap());
        }
    }
}
