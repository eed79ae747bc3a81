//! Inputs of the two served what-if workloads: the seeded data set, each
//! workload's pool of operations, and the expected reply of every request,
//! computed here from the generated rows without the engine.

use std::collections::{BTreeSet, HashSet};

use hypoquery_server::{Request, Verb};

/// Rows in each of `R(k, v)` and `S(k, v)`.
pub const ROWS: i64 = 6_000;
/// Keys are drawn from `0..KEYS`, so each key holds about two rows per
/// relation and equi-joins on `k` fan out about 2×.
pub const KEYS: i64 = 3_000;

/// SplitMix64: a small, fixed generator, so the same seed gives the same
/// inputs whatever the program's own random-number code does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }
}

type Row = (i64, i64);

/// The base relations. `v` is a dense counter, so `select v < t` keeps an
/// exact share of a relation and every row is distinct.
pub struct Data {
    r: Vec<Row>,
    s: Vec<Row>,
    r_by_key: Vec<Vec<i64>>,
    s_by_key: Vec<Vec<i64>>,
    r_set: HashSet<Row>,
}

impl Data {
    pub fn generate(rng: &mut Rng) -> Data {
        let mut rows = || -> Vec<Row> { (0..ROWS).map(|v| (rng.range(0, KEYS), v)).collect() };
        let (r, s) = (rows(), rows());
        let by_key = |rows: &[Row]| {
            let mut m = vec![Vec::new(); KEYS as usize];
            for &(k, v) in rows {
                m[k as usize].push(v);
            }
            m
        };
        Data {
            r_by_key: by_key(&r),
            s_by_key: by_key(&s),
            r_set: r.iter().copied().collect(),
            r,
            s,
        }
    }

    /// The data set in the program's dump format (what `hypoquery-serve
    /// --load` reads).
    pub fn dump(&self) -> String {
        let mut out = String::from("# hypoquery dump v1\n");
        for (name, rows) in [("R", &self.r), ("S", &self.s)] {
            out.push_str(&format!("relation {name} 2 k,v\n"));
            for (k, v) in rows {
                out.push_str(&format!("{k}\t{v}\n"));
            }
        }
        out
    }
}

/// The reply a request must get.
pub enum Expect {
    Ok,
    /// The result relation's rows, sorted.
    Rows(Vec<Vec<i64>>),
}

pub struct Step {
    pub req: Request,
    pub expect: Expect,
}

/// One operation: the unit a latency is measured for.
pub struct Op {
    pub steps: Vec<Step>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Scan,
    Branch,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "scan" => Some(Workload::Scan),
            "branch" => Some(Workload::Branch),
            _ => None,
        }
    }

    /// A seeded pool of operations that the client cycles through.
    pub fn pool(self, data: &Data, rng: &mut Rng) -> Vec<Op> {
        let (size, make): (usize, fn(&Data, &mut Rng) -> Op) = match self {
            Workload::Scan => (32, scan_op),
            Workload::Branch => (256, branch_op),
        };
        (0..size).map(|_| make(data, rng)).collect()
    }
}

fn query(src: String, rows: impl IntoIterator<Item = Vec<i64>>) -> Step {
    let mut rows: Vec<Vec<i64>> = rows.into_iter().collect();
    rows.sort();
    rows.dedup();
    Step {
        req: Request::new(Verb::Query, src, ""),
        expect: Expect::Rows(rows),
    }
}

fn ok(verb: Verb, args: &str, body: String) -> Step {
    Step {
        req: Request::new(verb, args, body),
        expect: Expect::Ok,
    }
}

/// A join of both whole relations, aggregated, in a state that deletes a
/// slice of `S` and then copies a key range of what is left into `R`. The
/// executor does nearly all of the work.
fn scan_op(d: &Data, rng: &mut Rng) -> Op {
    let del = rng.range(0, ROWS / 10);
    let ins = rng.range(0, KEYS / 10);
    // The update is sequential: the insert reads S after the delete.
    let s_after: Vec<Row> = d.s.iter().copied().filter(|&(_, v)| v >= del).collect();
    let mut per_key = vec![0i64; KEYS as usize];
    for &(k, _) in &s_after {
        per_key[k as usize] += 1;
    }
    let added = s_after
        .iter()
        .filter(|&&(k, _)| k < ins)
        .filter(|row| !d.r_set.contains(row));
    let (mut count, mut sum) = (0i64, 0i64);
    for &(k, v) in d.r.iter().chain(added) {
        count += per_key[k as usize];
        sum += v * per_key[k as usize];
    }
    Op {
        steps: vec![query(
            format!(
                "aggregate [; count, sum 1] (R join S on #0 = #2) \
                 when {{delete from S (select v < {del} (S)); insert into R (select k < {ins} (S))}}"
            ),
            [vec![count, sum]],
        )],
    }
}

/// A what-if session: open a branch, switch into it, ask a point query and
/// a range aggregate there, switch back and drop the branch.
fn branch_op(d: &Data, rng: &mut Rng) -> Op {
    let del = rng.range(0, ROWS / 10);
    let ins = rng.range(KEYS * 9 / 10, KEYS);
    let x = rng.range(0, KEYS);
    let below = rng.range(50, 500);
    // R in the branch is (R − σ[v < del] R) ∪ σ[k ≥ ins] S; these are
    // its rows with key in `keys`.
    let r_after = |keys: std::ops::Range<i64>| -> BTreeSet<Row> {
        keys.flat_map(|k| {
            let kept = d.r_by_key[k as usize].iter().filter(move |&&v| v >= del);
            let added = d.s_by_key[k as usize].iter().filter(move |_| k >= ins);
            kept.chain(added).map(move |&v| (k, v))
        })
        .collect()
    };
    let lookup = r_after(x..x + 1).into_iter().map(|(k, v)| vec![k, v]);
    let range: Vec<i64> = r_after(0..below).into_iter().map(|(_, v)| v).collect();
    let update =
        format!("delete from R (select v < {del} (R)); insert into R (select k >= {ins} (S))");
    Op {
        steps: vec![
            ok(Verb::Branch, "w", update),
            ok(Verb::Switch, "w", String::new()),
            query(format!("select k = {x} (R)"), lookup),
            query(
                format!("aggregate [; count, sum v] (select k < {below} (R))"),
                [vec![range.len() as i64, range.iter().sum()]],
            ),
            ok(Verb::Switch, "-", String::new()),
            ok(Verb::Drop, "w", String::new()),
        ],
    }
}
