//! # symla-baselines
//!
//! Baseline out-of-core schedules: the algorithms the SPAA'22 paper compares
//! against and builds upon.
//!
//! * [`ooc_syrk`] — Béreux's square-block `OOC_SYRK`
//!   (`N²M/√S + O(NM)` loads);
//! * [`ooc_trsm`] — one-tile `OOC_TRSM` (`N²M/√S + O(NM)` loads);
//! * [`ooc_chol`] — one-tile left-looking `OOC_CHOL` (`N³/(3√S) + O(N²)`
//!   loads);
//! * [`ooc_gemm`] — one-tile GEMM (`2NMP/√S + O(NP)` loads), the
//!   non-symmetric comparison point;
//! * [`ooc_lu`] — one-tile left-looking LU without pivoting
//!   (`2N³/(3√S) + O(N²)` loads).
//!
//! Every schedule comes in two forms that are tested to agree exactly:
//! an **analytic cost model** (`*_cost`) and a **numeric executor**
//! (`*_execute`) that runs the schedule on real data through the
//! capacity-enforced machine of `symla-memory` and is verified against the
//! in-memory reference kernels of `symla-matrix`.
//!
//! The improved schedules of the paper (TBS and LBC) live in `symla-core`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod ooc_chol;
pub mod ooc_gemm;
pub mod ooc_lu;
pub mod ooc_syrk;
pub mod ooc_trsm;
pub mod params;

pub use error::{OocError, Result};
pub use ooc_chol::{
    ooc_chol_build, ooc_chol_cost, ooc_chol_execute, ooc_chol_leading_loads, ooc_chol_schedule,
    OocCholPlan,
};
pub use ooc_gemm::{
    ooc_gemm_build, ooc_gemm_cost, ooc_gemm_execute, ooc_gemm_leading_loads, ooc_gemm_schedule,
    OocGemmPlan,
};
pub use ooc_lu::{
    ooc_lu_build, ooc_lu_cost, ooc_lu_execute, ooc_lu_leading_loads, ooc_lu_schedule, OocLuPlan,
};
pub use ooc_syrk::{
    ooc_syrk_build, ooc_syrk_cost, ooc_syrk_execute, ooc_syrk_leading_loads, ooc_syrk_rect_build,
    ooc_syrk_rects_cost, ooc_syrk_schedule, OocSyrkPlan,
};
pub use ooc_trsm::{
    ooc_trsm_build, ooc_trsm_cost, ooc_trsm_execute, ooc_trsm_leading_loads, ooc_trsm_schedule,
    OocTrsmPlan,
};
pub use params::{square_tile_for_capacity, IoEstimate};
