//! Helpers shared by the integration tests.

use std::collections::HashMap;
use symla::prelude::*;
use symla_sched::Step;

/// One region transfer of a schedule replayed at lookahead 0.
pub struct Transfer<'a> {
    pub store: bool,
    pub matrix: MatrixId,
    pub region: &'a Region,
}

/// The transfers a lookahead-0 replay of `schedule` makes, in order: every
/// `Load` step, and every `Store` step resolved through its buffer's latest
/// `Load`/`Alloc` binding.
pub fn transfers(schedule: &Schedule<f64>) -> Vec<Transfer<'_>> {
    let mut bound = HashMap::new();
    let mut out = Vec::new();
    for step in schedule.groups.iter().flat_map(|g| &g.steps) {
        match step {
            Step::Load {
                matrix,
                region,
                dst,
                ..
            } => {
                bound.insert(*dst, (*matrix, region));
                out.push(Transfer {
                    store: false,
                    matrix: *matrix,
                    region,
                });
            }
            Step::Alloc {
                matrix,
                region,
                dst,
            } => {
                bound.insert(*dst, (*matrix, region));
            }
            Step::Store { buf, .. } => {
                let (matrix, region) = bound[buf];
                out.push(Transfer {
                    store: true,
                    matrix,
                    region,
                });
            }
            _ => {}
        }
    }
    out
}
