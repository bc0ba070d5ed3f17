//! Property test: any parallel schedule of a task graph produces the same
//! result as sequential execution — the defining guarantee of superscalar
//! dataflow runtimes. The schedules are the executor's and the fork-join
//! one that runs the graph level by level.

use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;
use xsc_runtime::{Access, Executor, SchedPolicy, TaskGraph};

/// A randomly generated "program": each task touches 1–3 data slots and
/// applies a non-commutative update to each (so any reordering of
/// conflicting tasks changes the result).
#[derive(Debug, Clone)]
struct ProgramTask {
    accesses: Vec<(usize, bool)>, // (datum, is_write)
    coeff: i64,
}

fn program_strategy(num_data: usize, max_tasks: usize) -> impl Strategy<Value = Vec<ProgramTask>> {
    let task = (
        proptest::collection::vec((0..num_data, any::<bool>()), 1..=3),
        1..7i64,
    )
        .prop_map(|(accesses, coeff)| ProgramTask { accesses, coeff });
    proptest::collection::vec(task, 1..=max_tasks)
}

fn build_graph(program: &[ProgramTask], data: &[Arc<Mutex<i64>>]) -> TaskGraph {
    let mut g = TaskGraph::new();
    for (i, t) in program.iter().enumerate() {
        let mut accesses = Vec::new();
        // Deduplicate per-task data (a task may not read and write the same
        // slot twice in this model); keep the strongest access.
        let mut per_datum: std::collections::BTreeMap<usize, bool> = Default::default();
        for &(d, w) in &t.accesses {
            let e = per_datum.entry(d).or_insert(false);
            *e = *e || w;
        }
        let mut touched: Vec<(usize, bool)> = per_datum.into_iter().collect();
        touched.sort_unstable();
        for &(d, w) in &touched {
            accesses.push(if w { Access::Write(d) } else { Access::Read(d) });
        }
        let handles: Vec<(Arc<Mutex<i64>>, bool)> = touched
            .iter()
            .map(|&(d, w)| (Arc::clone(&data[d]), w))
            .collect();
        let coeff = t.coeff;
        g.add_task(format!("t{i}"), accesses, move || {
            // Reads feed into the writes, writes apply a non-commutative map.
            let mut acc = 0i64;
            for (h, w) in &handles {
                if !*w {
                    acc = acc.wrapping_add(*h.lock());
                }
            }
            for (h, w) in &handles {
                if *w {
                    let mut v = h.lock();
                    *v = v.wrapping_mul(coeff).wrapping_add(acc).wrapping_add(1);
                }
            }
        });
    }
    g
}

/// How a program's graph is run.
#[derive(Clone, Copy)]
enum Arm {
    /// `execute_serial`, the sequential reference.
    Serial,
    /// Fork-join: every task of a dependence level on its own thread, with
    /// a join before the next level.
    Levels,
    /// The work-stealing executor.
    Executor(usize, SchedPolicy),
}

fn run(program: &[ProgramTask], arm: Arm) -> Vec<i64> {
    let data: Vec<Arc<Mutex<i64>>> = (0..8).map(|i| Arc::new(Mutex::new(i as i64 + 1))).collect();
    let g = build_graph(program, &data);
    match arm {
        Arm::Serial => g.execute_serial(),
        Arm::Levels => {
            for level in g.into_levels() {
                std::thread::scope(|s| {
                    for body in level {
                        s.spawn(body);
                    }
                });
            }
        }
        Arm::Executor(threads, policy) => {
            Executor::new(threads, policy).execute(g);
        }
    }
    data.iter().map(|d| *d.lock()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_equals_serial(program in program_strategy(8, 40)) {
        let serial = run(&program, Arm::Serial);
        prop_assert_eq!(&run(&program, Arm::Levels), &serial, "level-by-level run diverged");
        for threads in [2usize, 4, 8] {
            for policy in [SchedPolicy::Fifo, SchedPolicy::CriticalPath] {
                let par = run(&program, Arm::Executor(threads, policy));
                prop_assert_eq!(&par, &serial,
                    "schedule with {} threads / {:?} diverged", threads, policy);
            }
        }
    }
}

#[test]
fn large_random_program_smoke() {
    // A deterministic large program exercising queue contention.
    let program: Vec<ProgramTask> = (0..400)
        .map(|i| ProgramTask {
            accesses: vec![(i % 8, i % 3 == 0), ((i * 5 + 1) % 8, i % 2 == 0)],
            coeff: (i % 5) as i64 + 1,
        })
        .collect();
    let serial = run(&program, Arm::Serial);
    let par = run(&program, Arm::Executor(8, SchedPolicy::CriticalPath));
    assert_eq!(par, serial);
    assert_eq!(run(&program, Arm::Levels), serial);
}
