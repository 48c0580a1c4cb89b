//! Data-mapping algorithms for Azul (Sec. IV).
//!
//! A *mapping* decides which tile holds each matrix nonzero and each vector
//! element. The mapping alone determines all inter-tile traffic (Sec. IV-A),
//! so this crate is where the paper's headline software contribution lives:
//!
//! * [`grid::TileGrid`] — 2-D torus geometry;
//! * [`placement::Placement`] — the tile assignment of every operand;
//! * [`strategies`] — the four mappers compared in the evaluation:
//!   Round-Robin (Dalorex), Block (Tascade/MPI), SparseP
//!   (coordinate-based 2-D chunking) and Azul's hypergraph mapping with
//!   row-edge weighting and q-quantile time balancing;
//! * [`tree`] — XY multicast/reduction trees on the torus (Fig. 18);
//! * [`traffic`] — the static traffic model behind Fig. 11 and the
//!   66x/46x/34x traffic-reduction claims of Sec. VI-C.
//!
//! # Example
//!
//! ```
//! use azul_mapping::{grid::TileGrid, strategies::{Mapper, RoundRobinMapper, AzulMapper}};
//! use azul_mapping::traffic::spmv_traffic;
//! use azul_sparse::generate;
//!
//! let a = generate::grid_laplacian_2d(16, 16);
//! let grid = TileGrid::new(4, 4);
//! let rr = RoundRobinMapper.map(&a, grid);
//! let azul = AzulMapper::default().map(&a, grid);
//! let t_rr = spmv_traffic(&a, &rr);
//! let t_azul = spmv_traffic(&a, &azul);
//! assert!(t_azul.messages < t_rr.messages, "hypergraph mapping cuts traffic");
//! ```

#![forbid(unsafe_code)]

pub mod grid;
pub mod placement;
pub mod strategies;
pub mod traffic;
pub mod tree;
pub mod workload;

pub use grid::{GridError, TileGrid, TileId};
pub use placement::Placement;
pub use strategies::{AzulMapper, BlockMapper, Mapper, RoundRobinMapper, SparsePMapper};
