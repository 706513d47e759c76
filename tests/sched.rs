//! Cross-crate acceptance of the nonblocking scheduler: a batch of
//! concurrent nonblocking operations must produce byte-identical results
//! to the same operations run sequentially through the blocking cluster
//! collectives, and the service layer must round-trip through the facade.

use std::sync::Arc;

use bgp_collectives::sched::{CollectiveServer, Sched};
use bgp_collectives::shmem::SharedRegion;
use bgp_collectives::smp::collectives::write_f64s;
use bgp_collectives::smp::Cluster;

/// The op mix both runs execute: three broadcasts (alternating root nodes,
/// multi-chunk and sub-chunk sizes) and two allreduces.
const BCASTS: [(usize, usize); 3] = [(0, 40_000), (1, 9_000), (1, 33_000)];
const REDUCES: [usize; 2] = [5_000, 700];

fn bcast_payload(op: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 131 + op * 17) % 251) as u8)
        .collect()
}

fn reduce_input(op: usize, global_rank: usize, count: usize) -> Vec<f64> {
    (0..count)
        .map(|i| (op * 1000 + global_rank * 10 + i % 97) as f64)
        .collect()
}

fn region(bytes: &[u8]) -> Arc<SharedRegion> {
    let r = Arc::new(SharedRegion::new(bytes.len().max(1)));
    // SAFETY: fresh region, not yet shared.
    unsafe { r.write(0, bytes) };
    r
}

fn f64_region(vals: &[f64]) -> Arc<SharedRegion> {
    let r = Arc::new(SharedRegion::new(vals.len() * 8));
    write_f64s(&r, 0, vals);
    r
}

fn read_bytes(r: &Arc<SharedRegion>, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    // SAFETY: read only after the op (blocking call or request) completed.
    unsafe { r.read(0, &mut v) };
    v
}

/// Per rank: the bytes every operation delivered, in op order.
type RankResults = Vec<Vec<u8>>;

/// One op of the mix, with this rank's operands.
enum Op {
    Bcast {
        root_node: usize,
        buf: Arc<SharedRegion>,
        len: usize,
    },
    Allreduce(Arc<SharedRegion>, usize),
}

/// The mix with the operands of rank `rank` on node `node` (`n` ranks per
/// node); broadcast roots are rank 0 of their node.
fn mix(node: usize, rank: usize, n: usize) -> Vec<Op> {
    let gr = node * n + rank;
    let mut ops = Vec::new();
    for (op, &(root_node, len)) in BCASTS.iter().enumerate() {
        let buf = if (node, rank) == (root_node, 0) {
            region(&bcast_payload(op, len))
        } else {
            Arc::new(SharedRegion::new(len))
        };
        ops.push(Op::Bcast {
            root_node,
            buf,
            len,
        });
    }
    for &count in &REDUCES {
        let input = f64_region(&reduce_input(ops.len(), gr, count));
        ops.push(Op::Allreduce(input, count));
    }
    ops
}

/// The mix posted nonblocking over the group `first..n` of an `m` x `n`
/// cluster, member `i` with the operands of rank `i` of an `m` x
/// `(n - first)` cluster and broadcasts rooted at the group's first member.
/// Ranks below `first` post as non-members and deliver nothing.
fn run_group(m: usize, n: usize, first: usize) -> Vec<Vec<RankResults>> {
    let cluster = Cluster::new(m, n);
    cluster.run(move |cctx| {
        let group: Vec<usize> = (first..n).collect();
        let me = cctx.rank().checked_sub(first);
        let member = me.is_some();
        let mut sched = Sched::new(cctx);
        let mut reqs = Vec::new();
        let mut bufs: Vec<(Arc<SharedRegion>, usize)> = Vec::new();
        // Post everything up front: five operations in flight at once.
        for op in mix(cctx.node(), me.unwrap_or(0), group.len()) {
            let (req, out, bytes) = match op {
                Op::Bcast {
                    root_node,
                    buf,
                    len,
                } => (
                    sched.ibcast(&group, root_node, first, member.then_some(&buf), len),
                    buf,
                    len,
                ),
                Op::Allreduce(input, count) => {
                    let out = Arc::new(SharedRegion::new(count * 8));
                    let req = sched.iallreduce(
                        &group,
                        member.then_some(&input),
                        member.then_some(&out),
                        count,
                    );
                    (req, out, count * 8)
                }
            };
            reqs.push(req.unwrap());
            bufs.push((out, bytes));
        }
        assert!(reqs.len() >= 4, "acceptance requires >= 4 concurrent ops");
        sched.wait_all(&reqs);
        if me.is_none() {
            return Vec::new();
        }
        bufs.iter().map(|(b, len)| read_bytes(b, *len)).collect()
    })
}

fn run_blocking(m: usize, n: usize) -> Vec<Vec<RankResults>> {
    let cluster = Cluster::new(m, n);
    cluster.run(move |cctx| {
        let mut out: RankResults = Vec::new();
        for op in mix(cctx.node(), cctx.rank(), n) {
            out.push(match op {
                Op::Bcast {
                    root_node,
                    buf,
                    len,
                } => {
                    cctx.bcast(root_node, &buf, len);
                    read_bytes(&buf, len)
                }
                Op::Allreduce(input, count) => {
                    let output = Arc::new(SharedRegion::new(count * 8));
                    cctx.allreduce_f64(&input, &output, count);
                    read_bytes(&output, count * 8)
                }
            });
        }
        out
    })
}

/// Five nonblocking operations in flight at once deliver exactly what the
/// blocking collectives deliver one at a time — on two nodes, and on three
/// and four, where rings have middle positions and trees interior nodes.
#[test]
fn concurrent_nonblocking_matches_sequential_blocking() {
    for (m, n) in [(2, 4), (3, 2), (4, 1)] {
        let nb = run_group(m, n, 0);
        let bl = run_blocking(m, n);
        assert_eq!(nb.len(), bl.len());
        for (node, (nb_node, bl_node)) in nb.iter().zip(&bl).enumerate() {
            for (rank, (nb_rank, bl_rank)) in nb_node.iter().zip(bl_node).enumerate() {
                assert_eq!(nb_rank.len(), bl_rank.len());
                for (op, (a, b)) in nb_rank.iter().zip(bl_rank).enumerate() {
                    assert_eq!(
                        a, b,
                        "{m} x {n}, node {node} rank {rank} op {op}: nonblocking result diverged"
                    );
                }
            }
        }
    }
}

/// The same mix over a group that leaves out rank 0 delivers what the
/// blocking collectives deliver on a cluster of the group's size: no result
/// lands in a buffer of the engine's own rank, every landing buffer is one
/// the engine maps from another rank.
#[test]
fn subgroup_without_the_engine_rank_matches_sequential_blocking() {
    for (m, n) in [(2, 2), (3, 2)] {
        let nb = run_group(m, n, 1);
        let bl = run_blocking(m, n - 1);
        for (node, (nb_node, bl_node)) in nb.iter().zip(&bl).enumerate() {
            assert!(nb_node[0].is_empty(), "rank 0 is no member");
            for (i, (nb_rank, bl_rank)) in nb_node[1..].iter().zip(bl_node).enumerate() {
                assert_eq!(nb_rank.len(), bl_rank.len());
                for (op, (a, b)) in nb_rank.iter().zip(bl_rank).enumerate() {
                    assert_eq!(
                        a, b,
                        "{m} x {n}, node {node} member {i} op {op}: nonblocking result diverged"
                    );
                }
            }
        }
    }
}

/// The service layer, reached through the facade crate: a reduction and a
/// broadcast submitted from the test thread come back correct.
#[test]
fn server_round_trip_through_facade() {
    let server = CollectiveServer::new(2, 4);
    let payload = bcast_payload(0, 2048);
    let bcast = server
        .submit_bcast(&[0, 1, 2, 3], 0, 0, payload.clone())
        .unwrap();
    let inputs: Vec<Vec<f64>> = (0..8).map(|m| reduce_input(1, m, 512)).collect();
    let expect: Vec<f64> = (0..512)
        .map(|i| (0..8).map(|m| reduce_input(1, m, 512)[i]).sum())
        .collect();
    let reduce = server.submit_allreduce(&[0, 1, 2, 3], inputs).unwrap();
    assert!(bcast.wait().iter().all(|m| *m == payload));
    assert!(reduce.wait().iter().all(|m| *m == expect));
    assert_eq!(server.stats().submitted, 2);
}
