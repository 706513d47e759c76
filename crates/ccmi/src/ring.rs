//! The ring-pipeline executor (allreduce, reduce-scatter, reduce,
//! allgather, alltoall).
//!
//! Every ring collective is node-symmetric, so steady-state throughput is
//! decided by one node's resources: the executor streams the bytes that
//! pass *through* the representative node across the three torus-axis
//! colors and, per color, through `Pwidth` pipeline chunks. What a chunk
//! costs is not decided here. The caller supplies a short **stage chain**
//! (paper §V-C: worker core reduces through mapped windows → protocol core
//! runs the ring → worker cores copy the result out); each stage is called
//! at its time, makes its reservations on the machine's servers, and
//! returns a [`StageOut`]: when it is done, when the color's next chunk may
//! enter the chain, and when the next stage runs.
//!
//! Events are ordered by `(time, insertion sequence)` and shared servers
//! are FIFO, so the order of `schedule_at` calls is part of the model: a
//! stage's successor is scheduled before the color's next chunk, and the
//! colors are launched in index order.

use bgp_dcmf::Machine;
use bgp_machine::geometry::{Axis, Direction, Sign};
use bgp_sim::{Engine, SimTime};

use crate::chunking::{chunk_sizes, color_shares};

/// Number of ring colors on a 3D torus (three edge-disjoint route pairs).
pub const RING_COLORS: usize = 3;

/// Per-color link direction (the three plus directions; the minus
/// directions carry the return halves of the ring, which the per-node
/// accounting folds into the pass factor).
pub fn color_dir(c: usize) -> Direction {
    Direction {
        axis: Axis::ALL[c],
        sign: Sign::Plus,
    }
}

/// Hops of one pass around the dimension-ordered rings.
pub fn ring_hops(m: &Machine) -> u64 {
    u64::from(m.cfg.dims.x + m.cfg.dims.y + m.cfg.dims.z)
}

/// Ring fill latency of one pass: the time the first byte needs to
/// circulate (a constant added to the pipeline's completion, not a rate).
pub fn ring_fill(m: &Machine) -> SimTime {
    let per_hop = m.cfg.torus.hop_latency(1) + SimTime::from_nanos(m.cfg.tree.core_packet_ns);
    per_hop * ring_hops(m)
}

/// What one stage reports back for one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageOut {
    /// When the stage's work on this chunk is finished (feeds the
    /// pipeline's completion maximum).
    pub done: SimTime,
    /// When the color's next chunk may enter the chain. Read from the
    /// first stage only.
    pub next_chunk: SimTime,
    /// When the next stage runs for this chunk. Ignored after the last
    /// stage.
    pub next_stage: SimTime,
}

impl StageOut {
    /// Everything happens at `t`: the stage is done, hands over and admits
    /// the next chunk at the same instant.
    pub fn at(t: SimTime) -> Self {
        StageOut {
            done: t,
            next_chunk: t,
            next_stage: t,
        }
    }
}

/// One stage of the chain, called with `(machine, now, color, chunk_bytes)`.
pub type Stage<'a> = &'a dyn Fn(&mut Machine, SimTime, usize, u64) -> StageOut;

struct Ring<'a> {
    m: &'a mut Machine,
    stages: &'a [Stage<'a>],
    chunks: Vec<Vec<u64>>,
    completion: SimTime,
}

/// Stream `through` bytes through the representative node starting at
/// `start`, every chunk walking `stages` in order. Returns the latest
/// `done` any stage reported (`start` when there is nothing to move).
pub fn run_ring_pipeline(
    m: &mut Machine,
    start: SimTime,
    through: u64,
    stages: &[Stage<'_>],
) -> SimTime {
    assert!(
        !stages.is_empty(),
        "a ring pipeline needs at least one stage"
    );
    let pwidth = u64::from(m.cfg.sw.pwidth);
    let chunks: Vec<Vec<u64>> = color_shares(through, RING_COLORS)
        .into_iter()
        .map(|share| chunk_sizes(share, pwidth))
        .collect();
    let mut eng = Engine::new();
    for (c, color) in chunks.iter().enumerate() {
        if !color.is_empty() {
            eng.schedule_at(start, move |r, eng| step(r, eng, c, 0, 0));
        }
    }
    let mut ring = Ring {
        m,
        stages,
        chunks,
        completion: start,
    };
    eng.run(&mut ring);
    ring.completion
}

/// Run stage `s` for chunk `k` of color `c`, then schedule its successor
/// and (from the first stage) the color's next chunk — in that order.
fn step<'a>(r: &mut Ring<'a>, eng: &mut Engine<Ring<'a>>, c: usize, k: usize, s: usize) {
    let out = (r.stages[s])(r.m, eng.now(), c, r.chunks[c][k]);
    r.completion = r.completion.max(out.done);
    if s + 1 < r.stages.len() {
        eng.schedule_at(out.next_stage, move |r, eng| step(r, eng, c, k, s + 1));
    }
    if s == 0 && k + 1 < r.chunks[c].len() {
        eng.schedule_at(out.next_chunk, move |r, eng| step(r, eng, c, k + 1, 0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_machine::geometry::NodeId;
    use bgp_machine::{MachineConfig, OpMode};
    use std::cell::RefCell;

    fn small() -> Machine {
        Machine::new(MachineConfig::test_small(OpMode::Quad))
    }

    fn ns(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    /// One recorded stage call: `(stage, now, color, chunk_bytes)`.
    type Call = (usize, SimTime, usize, u64);

    #[test]
    fn zero_bytes_schedules_nothing_and_returns_the_start() {
        let calls = RefCell::new(0u32);
        let stage: Stage = &|_, now, _, _| {
            *calls.borrow_mut() += 1;
            StageOut::at(now)
        };
        let t = run_ring_pipeline(&mut small(), ns(777), 0, &[stage, stage]);
        assert_eq!(t, ns(777));
        assert_eq!(*calls.borrow(), 0);
    }

    #[test]
    fn stages_of_one_chunk_run_in_order_at_the_returned_times() {
        let log: RefCell<Vec<Call>> = RefCell::new(Vec::new());
        let (s0, s1, s2): (Stage, Stage, Stage) = (
            &|_, now, c, b| {
                log.borrow_mut().push((0, now, c, b));
                StageOut {
                    next_stage: now + ns(40),
                    ..StageOut::at(now + ns(10))
                }
            },
            &|_, now, c, b| {
                log.borrow_mut().push((1, now, c, b));
                StageOut::at(now + ns(500))
            },
            &|_, now, c, b| {
                log.borrow_mut().push((2, now, c, b));
                StageOut::at(now + ns(7))
            },
        );
        // One byte: one chunk, on color 0 only.
        let t = run_ring_pipeline(&mut small(), ns(100), 1, &[s0, s1, s2]);
        assert_eq!(
            *log.borrow(),
            vec![(0, ns(100), 0, 1), (1, ns(140), 0, 1), (2, ns(640), 0, 1)]
        );
        assert_eq!(t, ns(647));
    }

    #[test]
    fn next_chunk_enters_exactly_when_the_previous_one_allowed_it() {
        let mut m = small();
        let pwidth = u64::from(m.cfg.sw.pwidth);
        let log: RefCell<Vec<Call>> = RefCell::new(Vec::new());
        // The admission gap differs per color and is unrelated to `done`.
        let s0: Stage = &|_, now, c, b| {
            log.borrow_mut().push((0, now, c, b));
            StageOut {
                done: now + ns(1000),
                next_chunk: now + ns(100 + c as u64),
                next_stage: now + ns(100 + c as u64),
            }
        };
        let s1: Stage = &|_, now, c, b| {
            log.borrow_mut().push((1, now, c, b));
            StageOut::at(now)
        };
        // Four chunks per color, the last one short by a byte on color 2.
        let through = 3 * 4 * pwidth - 1;
        let t = run_ring_pipeline(&mut m, ns(50), through, &[s0, s1]);
        let log = log.borrow();
        for c in 0..RING_COLORS {
            let entries: Vec<SimTime> = log
                .iter()
                .filter(|e| e.0 == 0 && e.2 == c)
                .map(|e| e.1)
                .collect();
            let gap = 100 + c as u64;
            let want: Vec<SimTime> = (0..4).map(|k| ns(50 + k * gap)).collect();
            assert_eq!(entries, want, "color {c}");
        }
        assert_eq!(log.iter().filter(|e| e.3 == pwidth - 1).count(), 2);
        assert_eq!(t, ns(50 + 3 * 102 + 1000));
        // Successor and next chunk tie at the same instant: the successor
        // was scheduled first, so it runs first.
        let at = |stage, c, nth| {
            let mut hits = log
                .iter()
                .enumerate()
                .filter(|(_, e)| e.0 == stage && e.2 == c);
            hits.nth(nth).unwrap().0
        };
        assert!(at(1, 0, 0) < at(0, 0, 1));
    }

    #[test]
    fn colors_sharing_a_server_are_served_in_time_then_insertion_order() {
        let mut m = small();
        let pwidth = u64::from(m.cfg.sw.pwidth);
        let dma = m.dma(NodeId(0));
        let served: RefCell<Vec<(SimTime, usize, SimTime)>> = RefCell::new(Vec::new());
        // Every color asks the one DMA server for 30 ns; color 2 admits its
        // next chunk sooner, so its later chunks overtake colors 0 and 1.
        let stage: Stage = &|m, now, c, _| {
            let finish = m.pool.reserve(dma, now, ns(30));
            served.borrow_mut().push((now, c, finish));
            StageOut {
                next_chunk: now + ns(if c == 2 { 40 } else { 100 }),
                ..StageOut::at(finish)
            }
        };
        let t = run_ring_pipeline(&mut m, ns(0), 3 * 2 * pwidth, &[stage]);
        let got: Vec<(u64, usize, u64)> = served
            .borrow()
            .iter()
            .map(|&(now, c, fin)| (now.as_nanos(), c, fin.as_nanos()))
            .collect();
        assert_eq!(
            got,
            vec![
                (0, 0, 30),
                (0, 1, 60),
                (0, 2, 90),
                (40, 2, 120),
                (100, 0, 150),
                (100, 1, 180),
            ]
        );
        assert_eq!(t, ns(180));
    }
}
