//! Host pace: a fixed reference computation, timed between operations on
//! the same core, so that every measured time can be divided by how fast
//! the host ran at that moment.
//!
//! The 2-vCPU hosts this was tuned on switch between a fast and a slow
//! regime every few seconds and sometimes stay slow for minutes; a `scan`
//! operation takes 1.6–1.8× as long in the slow one, so raw medians of
//! runs of the same program spread past 50%. The reference slows with the
//! host but not with the program: it is plain `std` code of this harness,
//! and it runs in the client thread while the server is idle. A measured
//! time `t` is reported as `t × NOMINAL_US / r`, with `r` the median
//! reference time around it: the time `t` would have taken had the
//! reference taken `NOMINAL_US`.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::median;

/// About the reference chunk's time on the tuning host in its fast regime.
pub const NOMINAL_US: f64 = 2000.0;

/// Share of each loop's time spent in reference chunks.
const SHARE: f64 = 0.25;

/// Windows of this length get their own reference time.
const WINDOW: Duration = Duration::from_millis(250);

/// Rows on each side of the reference join; keys are drawn from half as
/// many values, so each probe matches about two rows. At 4096 rows the
/// chunk fit in the core's caches and slowed only half as much as the
/// operations did in the host's slow regime.
const ROWS: usize = 16384;

pub struct Reference {
    left: Vec<Vec<i64>>,
    right: Vec<Vec<i64>>,
    /// Build side: key → index of its last left row, chained through
    /// `next`. Kept between chunks, as is `joined`, so that a chunk
    /// allocates nothing and its time does not depend on the state the
    /// program leaves the allocator in.
    heads: HashMap<i64, usize>,
    next: Vec<usize>,
    joined: Vec<[i64; 4]>,
}

impl Reference {
    pub fn new() -> Reference {
        // Fixed rows (SplitMix64 from 0), the same in every run.
        let mut x = 0u64;
        let mut rows = || -> Vec<Vec<i64>> {
            (0..ROWS as i64)
                .map(|v| {
                    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    vec![((z ^ (z >> 27)) % (ROWS as u64 / 2)) as i64, v]
                })
                .collect()
        };
        let (left, right) = (rows(), rows());
        Reference {
            left,
            right,
            heads: HashMap::with_capacity(ROWS),
            next: vec![usize::MAX; ROWS],
            joined: Vec::with_capacity(ROWS * 4),
        }
    }

    /// Run one chunk and return its time in µs. A chunk is a hash
    /// equi-join of two lists of heap-allocated rows that materializes its
    /// output rows and then aggregates them: the same kind of work, on the
    /// same kind of memory, as the executor's joins.
    pub fn chunk(&mut self) -> f64 {
        let t = Instant::now();
        self.heads.clear();
        for (i, row) in self.left.iter().enumerate() {
            self.next[i] = self.heads.insert(row[0], i).unwrap_or(usize::MAX);
        }
        self.joined.clear();
        for row in &self.right {
            let mut i = self.heads.get(&row[0]).copied().unwrap_or(usize::MAX);
            while i != usize::MAX {
                let l = &self.left[i];
                self.joined.push([l[0], l[1], row[0], row[1]]);
                i = self.next[i];
            }
        }
        let sum: i64 = self.joined.iter().map(|r| r[1] + r[3]).sum();
        black_box((self.joined.len(), sum));
        t.elapsed().as_secs_f64() * 1e6
    }

    /// Median time of `n` chunks, in µs.
    pub fn sample(&mut self, n: usize) -> f64 {
        let mut times: Vec<f64> = (0..n).map(|_| self.chunk()).collect();
        median(&mut times)
    }

    /// `us`, measured between two samples of `n` chunks, at the pace
    /// where a chunk takes `NOMINAL_US`.
    pub fn scaled(
        &mut self,
        n: usize,
        f: impl FnOnce() -> Result<f64, String>,
    ) -> Result<f64, String> {
        let before = self.sample(n);
        let us = f()?;
        Ok(us * NOMINAL_US * 2.0 / (before + self.sample(n)))
    }

    /// Call `op` with 0, 1, 2, … for `dur`, running reference chunks
    /// between calls for [`SHARE`] of the time. `op` returns its measured
    /// time in µs and a payload. Returns the samples of the faster half of
    /// the run's windows, as `(scale, µs, payload)`: `µs × scale` is the
    /// time at the pace where a chunk takes `NOMINAL_US`, with the window's
    /// median chunk time as the pace.
    ///
    /// Windows are ranked by their median scaled time. The chunks do not
    /// catch every stall (one that hits an operation and no chunk), and a
    /// stall only ever makes a window slower; a slower program slows every
    /// window alike.
    pub fn paced<T>(
        &mut self,
        dur: Duration,
        mut op: impl FnMut(usize) -> Result<(f64, T), String>,
    ) -> Result<Vec<(f64, f64, T)>, String> {
        let start = Instant::now();
        let window = |at: Duration| (at.as_secs_f64() / WINDOW.as_secs_f64()) as usize;
        let mut ops: Vec<Vec<(f64, T)>> = Vec::new();
        let mut refs: Vec<Vec<f64>> = Vec::new();
        let (mut op_us, mut ref_us) = (0.0, 0.0);
        let mut i = 0;
        while start.elapsed() < dur {
            let (us, payload) = op(i)?;
            i += 1;
            op_us += us;
            let w = window(start.elapsed());
            if ops.len() <= w {
                ops.resize_with(w + 1, Vec::new);
            }
            ops[w].push((us, payload));
            while ref_us < op_us * SHARE / (1.0 - SHARE) {
                let r = self.chunk();
                ref_us += r;
                let w = window(start.elapsed());
                if refs.len() <= w {
                    refs.resize_with(w + 1, Vec::new);
                }
                refs[w].push(r);
            }
        }
        // A window without chunks (one an operation spanned) takes the
        // pace of the nearest earlier window that has some, or else the
        // first one.
        refs.resize_with(ops.len().max(refs.len()), Vec::new);
        let mut pace: Vec<Option<f64>> = Vec::with_capacity(refs.len());
        for mut r in refs {
            let last = pace.last().copied().flatten();
            pace.push(if r.is_empty() {
                last
            } else {
                Some(median(&mut r))
            });
        }
        let first = pace
            .iter()
            .flatten()
            .next()
            .copied()
            .ok_or("no reference chunk ran")?;
        let mut ranked: Vec<_> = ops
            .into_iter()
            .zip(pace)
            .filter(|(w, _)| !w.is_empty())
            .map(|(w, r)| {
                let scale = NOMINAL_US / r.unwrap_or(first);
                let mut scaled: Vec<f64> = w.iter().map(|(us, _)| us * scale).collect();
                let samples: Vec<_> = w.into_iter().map(|(us, p)| (scale, us, p)).collect();
                (median(&mut scaled), samples)
            })
            .collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
        let keep = ranked.len().div_ceil(2);
        Ok(ranked.into_iter().take(keep).flat_map(|(_, w)| w).collect())
    }
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread, and so every thread it starts later, to the
/// CPU it runs on now. Operations and reference chunks then meet the same
/// contention, and no request pays for a wake-up on another core.
pub fn pin_to_one_cpu() -> Result<(), String> {
    // SAFETY: plain libc calls; the mask outlives the call, and its size
    // in bytes is passed with it.
    unsafe {
        let cpu = sched_getcpu();
        if !(0..1024).contains(&cpu) {
            return Err(format!("sched_getcpu returned {cpu}"));
        }
        let mut mask = [0u64; 16];
        mask[cpu as usize / 64] |= 1 << (cpu % 64);
        if sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) != 0 {
            return Err(format!(
                "sched_setaffinity: {}",
                std::io::Error::last_os_error()
            ));
        }
    }
    Ok(())
}
