//! Per-layer spans: replay the workload's requests in-process, the way a
//! server session handles them, timing each call into a layer.
//!
//! | span      | calls                                                     |
//! |-----------|-----------------------------------------------------------|
//! | parse     | `Database::prepare` (parse + type check); `BRANCH`'s update parse + check |
//! | plan      | what-if branch wrapping, `Database::plan_query` (statistics, rewrites, cost-based choice) |
//! | lower     | `Database::physical_plan`                                 |
//! | exec      | `PhysPlan::execute`                                       |
//! | codec     | the result reply's wire encode + decode                  |
//!
//! Row and operator counts come from one analyzed execution of each
//! distinct request, outside the timed spans.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use hypoquery_engine::{Database, EngineError, WhatIfTree};
use hypoquery_server::{Reply, Verb};

use crate::pace::Reference;
use crate::workload::{Expect, Op, Step};
use crate::{reply_matches, Tally};

/// Mean cost of one operation in each layer.
pub struct Layers {
    pub parse_us: f64,
    pub plan_us: f64,
    pub lower_us: f64,
    pub exec_us: f64,
    pub codec_us: f64,
    /// Tuples pushed out of any physical operator.
    pub rows_moved: f64,
    /// Physical operators in the executed plans.
    pub operators: f64,
    /// Rows returned to the client.
    pub result_rows: f64,
}

pub struct Replayed {
    pub tally: Tally,
    pub layers: Layers,
}

/// Replay the pool, in pool order, for `dur`; layer costs are means per
/// operation, scaled by the host pace, over the faster half of the run's
/// windows (see [`Reference::paced`]).
pub fn replay(
    base: &Database,
    pool: &[Op],
    pace: &mut Reference,
    dur: Duration,
) -> Result<Replayed, String> {
    let mut session = Session {
        db: base,
        tree: WhatIfTree::new(),
        current: None,
        spans: [Duration::ZERO; 5],
        counts: HashMap::new(),
        totals: [0; 3],
    };
    let mut tally = Tally::default();
    let samples = pace.paced(dur, |i| {
        let op = &pool[i % pool.len()];
        let (spans, totals) = (session.spans, session.totals);
        let mut ok = true;
        for (s, step) in op.steps.iter().enumerate() {
            ok &= session
                .step((i % pool.len(), s), step)
                .map_err(|e| format!("replay: {e}"))?;
        }
        tally.attempted += 1;
        tally.failed += u64::from(!ok);
        let us: [f64; 5] =
            std::array::from_fn(|n| (session.spans[n] - spans[n]).as_secs_f64() * 1e6);
        let counts: [u64; 3] = std::array::from_fn(|n| session.totals[n] - totals[n]);
        Ok((us.iter().sum(), (us, counts)))
    })?;
    let n = samples.len() as f64;
    let mean_us = |span: usize| {
        samples
            .iter()
            .map(|(scale, _, (us, _))| us[span] * scale)
            .sum::<f64>()
            / n
    };
    let mean_count = |c: usize| {
        samples
            .iter()
            .map(|(_, _, (_, k))| k[c] as f64)
            .sum::<f64>()
            / n
    };
    Ok(Replayed {
        layers: Layers {
            parse_us: mean_us(PARSE),
            plan_us: mean_us(PLAN),
            lower_us: mean_us(LOWER),
            exec_us: mean_us(EXEC),
            codec_us: mean_us(CODEC),
            rows_moved: mean_count(0),
            operators: mean_count(1),
            result_rows: mean_count(2),
        },
        tally,
    })
}

const PARSE: usize = 0;
const PLAN: usize = 1;
const LOWER: usize = 2;
const EXEC: usize = 3;
const CODEC: usize = 4;

/// The session state the replayed verbs act on.
struct Session<'a> {
    db: &'a Database,
    tree: WhatIfTree,
    current: Option<String>,
    spans: [Duration; 5],
    /// `(rows moved, operators)` per `(pool index, step)`.
    counts: HashMap<(usize, usize), (u64, u64)>,
    /// Rows moved, operators, result rows, summed over replayed requests.
    totals: [u64; 3],
}

impl Session<'_> {
    fn time<T>(&mut self, span: usize, f: impl FnOnce(&mut Self) -> T) -> T {
        let t = Instant::now();
        let out = f(self);
        self.spans[span] += t.elapsed();
        out
    }

    fn step(&mut self, id: (usize, usize), step: &Step) -> Result<bool, EngineError> {
        let req = &step.req;
        match req.verb {
            Verb::Query => {
                let src = req.source();
                let q = self.time(PARSE, |s| s.db.prepare(&src))?;
                let p = self.time(PLAN, |s| {
                    let q = match &s.current {
                        Some(b) => s.tree.at(b, &q)?,
                        None => q,
                    };
                    Ok::<_, EngineError>(s.db.plan_query(&q))
                })?;
                let phys = self.time(LOWER, |s| s.db.physical_plan(&p))?;
                let rel = self.time(EXEC, |s| phys.execute(s.db.state()))?;
                let rows = rel.len() as u64;
                let reply = self.time(CODEC, |_| {
                    Reply::decode(Reply::Rows(rel).encode().as_bytes())
                });
                let (moved, operators) = match self.counts.get(&id) {
                    Some(&c) => c,
                    None => {
                        let (_, m) = phys.execute_analyze(self.db.state())?;
                        let moved = (0..m.len()).map(|n| m.node(n).rows_out).sum();
                        let c = (moved, phys.node_count as u64);
                        self.counts.insert(id, c);
                        c
                    }
                };
                self.totals[0] += moved;
                self.totals[1] += operators;
                self.totals[2] += rows;
                Ok(reply.is_ok_and(|r| reply_matches(&r, &step.expect)))
            }
            Verb::Branch => {
                let name = req.args.trim();
                let parent = self.current.clone();
                self.time(PARSE, |s| {
                    s.tree
                        .branch(s.db, name, parent.as_deref(), req.body.trim())
                })?;
                Ok(matches!(step.expect, Expect::Ok))
            }
            Verb::Switch => {
                let target = req.args.trim();
                self.current = (target != "-").then(|| target.to_string());
                Ok(matches!(step.expect, Expect::Ok))
            }
            Verb::Drop => {
                self.tree.drop_branch(req.args.trim())?;
                self.current = None;
                Ok(matches!(step.expect, Expect::Ok))
            }
            other => unreachable!("workloads send no {other:?} in a replayed step"),
        }
    }
}
