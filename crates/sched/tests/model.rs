//! Model-checked verification of the scheduler's completion-publication
//! protocol ([`bgp_sched::OpState`]).
//!
//! Compiled only with `--features model`, which routes the state's atomics
//! and slot cells through the `bgp-check` deterministic scheduler:
//!
//! ```text
//! cargo test -p bgp-sched --features model --test model
//! ```
//!
//! The protocol under test is the ticket handshake: each member fills its
//! result slot and counts down; the last one release-publishes the done
//! flag; a waiter acquire-reads the flag and only then takes the slots.
//! The tests check the full flag/slot protocol schedule-exhaustively, the
//! request-handle lifecycle (a waiter polling `is_done` never misses the
//! wakeup), the park handshake (a parked waiter registers in the waiters
//! word and re-checks done; the last filler stores done and only then reads
//! the word), and — the self-tests — that weakening the final store to
//! `Relaxed` (the `sched_done_relaxed` seeded bug) is caught as a data
//! race, that reading the waiters word before the done store (the
//! `wake_skipped` seeded bug) is caught as a deadlock, and that each
//! reported trace replays deterministically.

#![cfg(feature = "model")]

use std::sync::Arc;

use bgp_check::thread;
use bgp_check::{explore, model_with, Config, Failure, FailureKind};
use bgp_sched::OpState;

/// Explore a mutated scenario, require a failure within the budget, then
/// require that replaying the reported trace (with the same mutation)
/// reproduces the same kind of failure deterministically.
fn assert_mutation_caught(name: &str, cfg: Config, scenario: fn()) -> Failure {
    let report = explore(cfg.mutate(name), scenario);
    let failure = report.failure.unwrap_or_else(|| {
        panic!(
            "seeded bug `{name}` was NOT caught in {} schedule(s)",
            report.schedules
        )
    });
    let replay = explore(Config::replay(&failure.trace).mutate(name), scenario);
    assert_eq!(replay.schedules, 1);
    let replayed = replay
        .failure
        .unwrap_or_else(|| panic!("replaying the failing trace of `{name}` found no failure"));
    assert_eq!(replayed.kind, failure.kind, "replay diverged for `{name}`");
    assert_eq!(
        replayed.trace, failure.trace,
        "trace not stable for `{name}`"
    );
    failure
}

/// Two members complete their slots in either order; the waiter spins on
/// the done flag and must then see both payloads — under every explored
/// schedule. This is exactly what a ticket's `wait()` does.
#[test]
fn completion_flag_publishes_every_slot() {
    model_with(Config::dfs(10_000), || {
        let st = Arc::new(OpState::new(2));
        let writers: Vec<_> = (0..2usize)
            .map(|i| {
                let st = st.clone();
                thread::spawn(move || {
                    st.complete_slot(i, vec![i as u8 + 1; 3]);
                })
            })
            .collect();
        while !st.is_done() {
            bgp_shmem::spin();
        }
        // SAFETY: this thread is the slots' one reader.
        assert_eq!(unsafe { st.take(0) }, vec![1u8; 3], "slot 0 lost or torn");
        assert_eq!(unsafe { st.take(1) }, vec![2u8; 3], "slot 1 lost or torn");
        for w in writers {
            w.join();
        }
    });
}

/// Request-handle lifecycle: a waiter that polls `is_done` (the `test()` /
/// `wait()` shape) never misses the completion — the flag transition is
/// permanent, so the poll loop terminates on every schedule, including the
/// one where the last `complete_slot` lands between two polls.
#[test]
fn request_lifecycle_has_no_lost_wakeup() {
    model_with(Config::dfs(10_000), || {
        let st = Arc::new(OpState::new(1));
        let writer = {
            let st = st.clone();
            thread::spawn(move || {
                st.complete_slot(0, vec![7]);
            })
        };
        // Poll-then-park, as Sched::wait does. A lost wakeup would park
        // this thread forever and the model would report the deadlock.
        let mut polls = 0u32;
        while !st.is_done() {
            polls += 1;
            assert!(polls < 1_000_000, "wakeup lost");
            bgp_shmem::spin();
        }
        assert!(st.is_done(), "done flag regressed");
        // SAFETY: this thread is the slot's one reader.
        assert_eq!(unsafe { st.take(0) }, vec![7]);
        writer.join();
    });
}

fn relaxed_done_scenario() {
    let st = Arc::new(OpState::new(1));
    let writer = {
        let st = st.clone();
        thread::spawn(move || {
            st.complete_slot(0, vec![42]);
        })
    };
    while !st.is_done() {
        bgp_shmem::spin();
    }
    // With the release edge severed this read races the writer's slot
    // store — the checker must flag it.
    // SAFETY: this thread is the slot's one reader.
    assert_eq!(unsafe { st.take(0) }, vec![42]);
    writer.join();
}

/// Mutation self-test: `sched_done_relaxed` weakens the done-flag store to
/// `Relaxed`, severing the release/acquire edge that orders slot writes
/// before a waiter's reads. The checker must catch it as a race, and the
/// trace must replay.
#[test]
fn mutation_sched_done_relaxed_is_caught() {
    let failure = assert_mutation_caught(
        "sched_done_relaxed",
        Config::dfs(10_000),
        relaxed_done_scenario,
    );
    assert_eq!(
        failure.kind,
        FailureKind::Race,
        "expected a data race on the slot cell, got: {failure:?}"
    );
}

/// A waiter parks on the board while the one member completes it. Under
/// `model` the waiter skips its spin, and its park is a spin on a word the
/// finisher stores in place of its notify — so a wake-up the finisher skips
/// leaves the waiter spinning with nobody left to store, which the checker
/// reports as a deadlock.
fn parked_waiter_scenario() {
    let st = Arc::new(OpState::new(1));
    let writer = {
        let st = st.clone();
        thread::spawn(move || {
            st.complete_slot(0, vec![5]);
        })
    };
    st.wait();
    // SAFETY: this thread is the slot's one reader.
    assert_eq!(unsafe { st.take(0) }, vec![5]);
    writer.join();
}

/// The waiters-word handshake loses no wake-up: on every schedule either
/// the waiter's re-check sees done or the finisher sees the registration.
#[test]
fn a_parked_waiter_is_always_woken() {
    model_with(Config::dfs(10_000), parked_waiter_scenario);
}

/// Mutation self-test: `wake_skipped` has the finisher read the waiters
/// word *before* its done store. A waiter that registers and re-checks
/// between the two is never woken; the checker must report the deadlock,
/// and the trace must replay.
#[test]
fn mutation_wake_skipped_is_caught() {
    let failure =
        assert_mutation_caught("wake_skipped", Config::dfs(10_000), parked_waiter_scenario);
    assert_eq!(
        failure.kind,
        FailureKind::Deadlock,
        "expected the lost wake-up as a deadlock, got: {failure:?}"
    );
}
