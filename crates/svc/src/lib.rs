//! # bgp-svc — the multi-tenant collectives service
//!
//! The `bgp-sched` [`CollectiveServer`] is a per-cluster helper: anyone
//! holding a reference can submit, every submission is anonymous, and
//! communicator groups are re-validated strings of ranks on every call.
//! That is fine for one client; it falls over the moment many independent
//! clients — the "millions of users, heavy traffic" regime — share one
//! node's engines, which is exactly the multi-object sharing studied in
//! the PiP-based multi-object collectives line of work. This crate is the
//! service layer between the scheduler and those clients:
//!
//! * **Tenants** are named principals with a DRR weight. A tenant owns a
//!   bounded submission queue inside the server; the deficit-round-robin
//!   dispatcher serves tenants proportionally to weight, so one flooding
//!   tenant gets [`SvcError::Sched`]`(`[`SchedError::Backpressure`]`)`
//!   while everybody else keeps their latency.
//! * **Sessions** ([`Service::open_session`]) are a client's handle onto a
//!   tenant. Many sessions (threads) may share one tenant; they all draw
//!   from — and are accounted to — that tenant's queue and stats.
//! * **Communicators** ([`Comm`]) are validated *once* at creation
//!   ([`Session::comm_create`], [`Comm::split`]) and then reused: submit
//!   calls skip group validation entirely. A comm is refcounted by its
//!   outstanding tickets, so [`Comm::destroy`] with ops in flight fails
//!   with [`SvcError::CommBusy`] instead of pulling the group out from
//!   under them, and submitting on a destroyed comm fails with
//!   [`SvcError::CommDestroyed`]. Every misuse is a typed error — never a
//!   hang, never a panic.
//! * **Observability** — [`Service::tenant_stats`] by name,
//!   [`Service::record_probe`] exports each tenant's counters as
//!   Chrome-trace `"C"` series (`svc/<tenant>/submitted`, …) through a
//!   [`bgp_sim::probe::Probe`].
//!
//! The soak harness driving all of this at scale lives in
//! `crates/bench/src/bin/svc_soak.rs`; [`metrics`] holds the latency
//! percentile and Jain fairness-index helpers it (and the tests) use.
//!
//! ## Lifecycle example
//!
//! ```
//! use bgp_svc::{Service, SvcError};
//!
//! let svc = Service::new(1, 4); // 1 node x 4 ranks
//! let session = svc.open_session("analytics", 2).unwrap();
//! let world = session.comm_world();
//! let pair = world.split(&[0, 2]).unwrap();
//!
//! let t = pair.bcast(0, 0, b"hello".to_vec()).unwrap();
//! assert!(matches!(pair.destroy(), Err(SvcError::CommBusy { .. })));
//! assert_eq!(t.wait(), vec![b"hello".to_vec(); 2]); // consumes the ticket
//! pair.destroy().unwrap();
//! assert!(matches!(
//!     pair.bcast(0, 0, vec![1]),
//!     Err(SvcError::CommDestroyed)
//! ));
//! ```

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use bgp_sched::{
    validate_group_shape, AllreduceTicket as SchedAllreduceTicket, BcastTicket as SchedBcastTicket,
    CollectiveServer, SchedError, ServerConfig, ServerStats, TenantId, TenantStats,
};
use bgp_sim::probe::Probe;

pub mod metrics;

/// Why a service call was refused. Every lifecycle misuse maps to one of
/// these — the service never hangs or panics on a bad call.
#[derive(Debug, Clone, PartialEq)]
pub enum SvcError {
    /// No tenant of that name has opened a session on this service.
    UnknownTenant(String),
    /// A session was opened on an existing tenant with a different weight;
    /// a tenant's weight is fixed by its first session.
    WeightMismatch {
        /// The tenant's registered weight.
        registered: u32,
        /// The weight the new session asked for.
        requested: u32,
    },
    /// The communicator was already destroyed.
    CommDestroyed,
    /// The communicator still has outstanding tickets and cannot be
    /// destroyed until they are waited or dropped.
    CommBusy {
        /// Outstanding tickets at the time of the call.
        in_flight: u64,
    },
    /// `split` ranks must be a subset of the parent communicator.
    NotASubset,
    /// The underlying scheduler refused the submission (backpressure, bad
    /// root, payload too large, ...).
    Sched(SchedError),
}

impl From<SchedError> for SvcError {
    fn from(e: SchedError) -> Self {
        SvcError::Sched(e)
    }
}

impl std::fmt::Display for SvcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SvcError::UnknownTenant(name) => write!(f, "unknown tenant `{name}`"),
            SvcError::WeightMismatch {
                registered,
                requested,
            } => write!(
                f,
                "tenant already registered with weight {registered}, session asked for {requested}"
            ),
            SvcError::CommDestroyed => write!(f, "communicator was destroyed"),
            SvcError::CommBusy { in_flight } => write!(
                f,
                "communicator has {in_flight} outstanding ticket(s); wait or drop them first"
            ),
            SvcError::NotASubset => {
                write!(f, "split ranks must be a subset of the parent communicator")
            }
            SvcError::Sched(e) => write!(f, "scheduler refused the submission: {e}"),
        }
    }
}

impl std::error::Error for SvcError {}

/// Per-tenant bookkeeping the service keeps on top of the server: the
/// server-side id, leaked `'static` probe-series names, and the counter
/// values last exported to a probe (probe counters are cumulative, so
/// exports are deltas).
struct TenantEntry {
    id: TenantId,
    weight: u32,
    probe_names: [&'static str; 5],
    last_exported: [u64; 5],
}

/// Order of the exported probe series, matching `TenantEntry::probe_names`.
const PROBE_SERIES: [&str; 5] = ["submitted", "completed", "coalesced", "rejected", "wait_ns"];

struct ServiceInner {
    server: CollectiveServer,
    tenants: Mutex<HashMap<String, TenantEntry>>,
}

/// The long-running multi-tenant collectives service. Owns a
/// [`CollectiveServer`] (and through it, a thread cluster); hand out
/// [`Session`]s with [`Service::open_session`]. Cloneable handles are not
/// needed — the service is `Sync`, sessions hold an internal `Arc`.
pub struct Service {
    inner: Arc<ServiceInner>,
}

impl Service {
    /// A service over a fresh `m`-node, `n`-ranks-per-node cluster with
    /// default scheduler tuning.
    pub fn new(m: usize, n: usize) -> Self {
        Self::with_config(m, n, ServerConfig::default())
    }

    /// A service with explicit scheduler tuning.
    pub fn with_config(m: usize, n: usize, cfg: ServerConfig) -> Self {
        Service {
            inner: Arc::new(ServiceInner {
                server: CollectiveServer::with_config(m, n, cfg),
                tenants: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// Nodes in the service's cluster.
    pub fn n_nodes(&self) -> usize {
        self.inner.server.n_nodes()
    }

    /// Ranks per node in the service's cluster.
    pub fn n_ranks(&self) -> usize {
        self.inner.server.n_ranks()
    }

    /// Open a session for `tenant` (registering the tenant with DRR
    /// `weight`, clamped to at least 1, on first open). Re-opening an
    /// existing tenant must ask for the same weight —
    /// [`SvcError::WeightMismatch`] otherwise. Sessions are cheap; open
    /// one per client thread.
    pub fn open_session(&self, tenant: &str, weight: u32) -> Result<Session, SvcError> {
        let weight = weight.max(1);
        let mut tenants = self.inner.tenants.lock().expect("tenant table lock");
        let entry = match tenants.get(tenant) {
            Some(e) => {
                if e.weight != weight {
                    return Err(SvcError::WeightMismatch {
                        registered: e.weight,
                        requested: weight,
                    });
                }
                e
            }
            None => {
                let id = self.inner.server.add_tenant(weight);
                // Probe counter names must be 'static; tenants live for
                // the process anyway, so one leaked name-set per tenant
                // registration is a bounded cost.
                let probe_names =
                    PROBE_SERIES.map(|s| &*Box::leak(format!("svc/{tenant}/{s}").into_boxed_str()));
                tenants.entry(tenant.to_string()).or_insert(TenantEntry {
                    id,
                    weight,
                    probe_names,
                    last_exported: [0; 5],
                })
            }
        };
        Ok(Session {
            svc: self.inner.clone(),
            tenant: entry.id,
            name: tenant.to_string(),
        })
    }

    /// Snapshot the whole server's counters (torn-snapshot semantics —
    /// see [`ServerStats`]).
    pub fn stats(&self) -> ServerStats {
        self.inner.server.stats()
    }

    /// Snapshot one tenant's counters by name.
    pub fn tenant_stats(&self, tenant: &str) -> Result<TenantStats, SvcError> {
        let tenants = self.inner.tenants.lock().expect("tenant table lock");
        let e = tenants
            .get(tenant)
            .ok_or_else(|| SvcError::UnknownTenant(tenant.to_string()))?;
        self.inner.server.tenant_stats(e.id).map_err(SvcError::from)
    }

    /// Snapshot every tenant's counters as `(name, stats)`, sorted by
    /// name for deterministic output.
    pub fn all_tenant_stats(&self) -> Vec<(String, TenantStats)> {
        let tenants = self.inner.tenants.lock().expect("tenant table lock");
        let mut out: Vec<(String, TenantStats)> = tenants
            .iter()
            .filter_map(|(name, e)| {
                self.inner
                    .server
                    .tenant_stats(e.id)
                    .ok()
                    .map(|s| (name.clone(), s))
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Export every tenant's counters into `probe` as Chrome-trace `"C"`
    /// series named `svc/<tenant>/<counter>` (submitted, completed,
    /// coalesced, rejected, wait_ns). Probe counters are cumulative, so
    /// each call adds the delta since the previous call; calling this
    /// periodically (or once at the end of a run) makes the per-tenant
    /// totals line up with [`Service::tenant_stats`].
    pub fn record_probe(&self, probe: &mut Probe) {
        let mut tenants = self.inner.tenants.lock().expect("tenant table lock");
        for e in tenants.values_mut() {
            let Ok(s) = self.inner.server.tenant_stats(e.id) else {
                continue;
            };
            let now = [s.submitted, s.completed, s.coalesced, s.rejected, s.wait_ns];
            for (i, value) in now.iter().enumerate() {
                let delta = value.saturating_sub(e.last_exported[i]);
                if delta > 0 {
                    probe.count(e.probe_names[i], delta);
                }
            }
            e.last_exported = now;
        }
    }
}

/// One client's handle onto a tenant of a [`Service`]. Creates
/// communicators; cheap to clone (`open_session` again) and safe to move
/// to a worker thread.
pub struct Session {
    svc: Arc<ServiceInner>,
    tenant: TenantId,
    name: String,
}

impl Session {
    /// The tenant this session submits as.
    pub fn tenant(&self) -> &str {
        &self.name
    }

    /// A communicator over every rank of the cluster (the MPI_COMM_WORLD
    /// analogue). Infallible: the full rank list is always valid.
    pub fn comm_world(&self) -> Comm {
        let ranks: Vec<usize> = (0..self.svc.server.n_ranks()).collect();
        Comm {
            inner: Arc::new(CommInner {
                svc: self.svc.clone(),
                tenant: self.tenant,
                ranks: Arc::new(ranks),
                life: Mutex::new(CommLife::default()),
            }),
        }
    }

    /// A communicator over `ranks` (sorted, duplicate-free, in range —
    /// validated *here*, once; submissions on the comm skip validation).
    pub fn comm_create(&self, ranks: &[usize]) -> Result<Comm, SvcError> {
        validate_group_shape(ranks, self.svc.server.n_ranks())?;
        Ok(Comm {
            inner: Arc::new(CommInner {
                svc: self.svc.clone(),
                tenant: self.tenant,
                ranks: Arc::new(ranks.to_vec()),
                life: Mutex::new(CommLife::default()),
            }),
        })
    }
}

#[derive(Default)]
struct CommLife {
    destroyed: bool,
    /// Outstanding tickets (incremented at submit, decremented when the
    /// ticket is waited or dropped).
    in_flight: u64,
}

struct CommInner {
    svc: Arc<ServiceInner>,
    tenant: TenantId,
    ranks: Arc<Vec<usize>>,
    life: Mutex<CommLife>,
}

/// A validated, reusable communicator group. Clones share the same
/// lifecycle state: destroying one handle destroys the communicator for
/// all of them.
#[derive(Clone)]
pub struct Comm {
    inner: Arc<CommInner>,
}

impl Comm {
    /// The member ranks (per node), as validated at creation.
    pub fn ranks(&self) -> &[usize] {
        &self.inner.ranks
    }

    /// Total members across the cluster (`n_nodes * ranks().len()`) —
    /// the length of the vectors a ticket's `wait` returns.
    pub fn n_members(&self) -> usize {
        self.inner.svc.server.n_nodes() * self.inner.ranks.len()
    }

    /// A child communicator over a subset of this one's ranks. Validated
    /// once, like [`Session::comm_create`]; the child has its own
    /// lifecycle (destroying the parent does not destroy it, but a
    /// destroyed parent refuses to split).
    pub fn split(&self, ranks: &[usize]) -> Result<Comm, SvcError> {
        {
            let life = self.inner.life.lock().expect("comm life lock");
            if life.destroyed {
                return Err(SvcError::CommDestroyed);
            }
        }
        validate_group_shape(ranks, self.inner.svc.server.n_ranks())?;
        if !ranks.iter().all(|r| self.inner.ranks.contains(r)) {
            return Err(SvcError::NotASubset);
        }
        Ok(Comm {
            inner: Arc::new(CommInner {
                svc: self.inner.svc.clone(),
                tenant: self.inner.tenant,
                ranks: Arc::new(ranks.to_vec()),
                life: Mutex::new(CommLife::default()),
            }),
        })
    }

    /// Destroy the communicator. Fails with [`SvcError::CommBusy`] while
    /// tickets are outstanding and [`SvcError::CommDestroyed`] if already
    /// destroyed; succeeds exactly once.
    pub fn destroy(&self) -> Result<(), SvcError> {
        let mut life = self.inner.life.lock().expect("comm life lock");
        if life.destroyed {
            return Err(SvcError::CommDestroyed);
        }
        if life.in_flight > 0 {
            return Err(SvcError::CommBusy {
                in_flight: life.in_flight,
            });
        }
        life.destroyed = true;
        Ok(())
    }

    /// Register one outstanding ticket, refusing if destroyed.
    fn begin_op(&self) -> Result<OpGuard, SvcError> {
        let mut life = self.inner.life.lock().expect("comm life lock");
        if life.destroyed {
            return Err(SvcError::CommDestroyed);
        }
        life.in_flight += 1;
        Ok(OpGuard {
            comm: self.inner.clone(),
        })
    }

    /// Broadcast `payload` from `(root_node, root_rank)` to every member,
    /// blocking while the tenant's queue is at its admission bound.
    pub fn bcast(
        &self,
        root_node: usize,
        root_rank: usize,
        payload: Vec<u8>,
    ) -> Result<BcastTicket, SvcError> {
        let guard = self.begin_op()?;
        let inner = self.inner.svc.server.submit_bcast_as(
            self.inner.tenant,
            &self.inner.ranks,
            root_node,
            root_rank,
            payload,
        )?;
        Ok(BcastTicket {
            inner,
            _guard: guard,
        })
    }

    /// Like [`Self::bcast`] but failing with
    /// [`SvcError::Sched`]`(`[`SchedError::Backpressure`]`)` instead of
    /// blocking at the admission bound.
    pub fn try_bcast(
        &self,
        root_node: usize,
        root_rank: usize,
        payload: Vec<u8>,
    ) -> Result<BcastTicket, SvcError> {
        let guard = self.begin_op()?;
        let inner = self.inner.svc.server.try_submit_bcast_as(
            self.inner.tenant,
            &self.inner.ranks,
            root_node,
            root_rank,
            payload,
        )?;
        Ok(BcastTicket {
            inner,
            _guard: guard,
        })
    }

    /// Sum-allreduce: one input vector per member in global member order
    /// (`node * ranks().len() + index`), all the same length. Blocks at
    /// the admission bound.
    pub fn allreduce(&self, inputs: Vec<Vec<f64>>) -> Result<AllreduceTicket, SvcError> {
        let guard = self.begin_op()?;
        let inner = self.inner.svc.server.submit_allreduce_as(
            self.inner.tenant,
            &self.inner.ranks,
            inputs,
        )?;
        Ok(AllreduceTicket {
            inner,
            _guard: guard,
        })
    }
}

/// Holds one unit of a communicator's in-flight refcount; released when
/// the owning ticket is waited or dropped.
struct OpGuard {
    comm: Arc<CommInner>,
}

impl Drop for OpGuard {
    fn drop(&mut self) {
        let mut life = self.comm.life.lock().expect("comm life lock");
        life.in_flight -= 1;
    }
}

/// Completion handle of a [`Comm::bcast`]. Keeps the communicator busy
/// ([`Comm::destroy`] → [`SvcError::CommBusy`]) until waited or dropped.
pub struct BcastTicket {
    inner: SchedBcastTicket,
    _guard: OpGuard,
}

impl BcastTicket {
    /// Has the broadcast delivered to every member?
    pub fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    /// Spin until done; returns every member's received payload in global
    /// member order. Consuming the ticket releases the comm refcount.
    pub fn wait(self) -> Vec<Vec<u8>> {
        self.inner.wait()
    }
}

/// Completion handle of a [`Comm::allreduce`]. Keeps the communicator
/// busy until waited or dropped.
pub struct AllreduceTicket {
    inner: SchedAllreduceTicket,
    _guard: OpGuard,
}

impl AllreduceTicket {
    /// Has the reduction delivered to every member?
    pub fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    /// Spin until done; returns every member's result vector in global
    /// member order.
    pub fn wait(self) -> Vec<Vec<f64>> {
        self.inner.wait()
    }

    /// Spin until done; surfaces a slot whose byte length is not a whole
    /// number of f64 lanes as [`SchedError::MalformedPayload`] instead of
    /// panicking.
    pub fn try_wait(self) -> Result<Vec<Vec<f64>>, SvcError> {
        self.inner.try_wait().map_err(SvcError::Sched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_share_a_tenant_and_weights_are_sticky() {
        let svc = Service::new(1, 2);
        let s1 = svc.open_session("t", 3).unwrap();
        let s2 = svc.open_session("t", 3).unwrap();
        assert_eq!(s1.tenant(), s2.tenant());
        assert!(matches!(
            svc.open_session("t", 4),
            Err(SvcError::WeightMismatch {
                registered: 3,
                requested: 4
            })
        ));
        assert_eq!(svc.tenant_stats("t").unwrap().weight, 3);
        assert!(matches!(
            svc.tenant_stats("nobody"),
            Err(SvcError::UnknownTenant(_))
        ));
    }

    #[test]
    fn comm_validation_happens_at_creation() {
        let svc = Service::new(1, 4);
        let s = svc.open_session("t", 1).unwrap();
        assert!(matches!(
            s.comm_create(&[2, 1]),
            Err(SvcError::Sched(SchedError::BadGroup(_)))
        ));
        assert!(matches!(
            s.comm_create(&[0, 9]),
            Err(SvcError::Sched(SchedError::BadGroup(_)))
        ));
        let world = s.comm_world();
        assert_eq!(world.ranks(), &[0, 1, 2, 3]);
        assert!(matches!(world.split(&[1, 9]), Err(SvcError::Sched(_))));
        let sub = world.split(&[1, 3]).unwrap();
        assert!(matches!(sub.split(&[0, 1]), Err(SvcError::NotASubset)));
    }

    #[test]
    fn destroy_lifecycle_is_typed_and_exact() {
        let svc = Service::new(1, 2);
        let s = svc.open_session("t", 1).unwrap();
        let comm = s.comm_world();
        let clone = comm.clone();
        let t = comm.bcast(0, 0, vec![7u8; 128]).unwrap();
        match comm.destroy() {
            Err(SvcError::CommBusy { in_flight }) => assert_eq!(in_flight, 1),
            other => panic!("expected CommBusy, got {other:?}"),
        }
        assert_eq!(t.wait(), vec![vec![7u8; 128]; 2]);
        clone.destroy().unwrap();
        // The clone shares lifecycle state with the original.
        assert!(matches!(comm.destroy(), Err(SvcError::CommDestroyed)));
        assert!(matches!(
            comm.bcast(0, 0, vec![1]),
            Err(SvcError::CommDestroyed)
        ));
        assert!(matches!(
            comm.allreduce(vec![vec![1.0], vec![1.0]]),
            Err(SvcError::CommDestroyed)
        ));
        assert!(matches!(comm.split(&[0]), Err(SvcError::CommDestroyed)));
    }

    #[test]
    fn dropping_an_unwaited_ticket_releases_the_comm() {
        let svc = Service::new(1, 2);
        let s = svc.open_session("t", 1).unwrap();
        let comm = s.comm_world();
        let t = comm.bcast(0, 0, vec![1u8; 64]).unwrap();
        drop(t);
        // The guard released at drop; destroy may proceed once in_flight
        // is zero (immediately — drop is synchronous).
        comm.destroy().unwrap();
    }

    #[test]
    fn probe_export_accumulates_per_tenant_series() {
        let svc = Service::new(1, 2);
        let s = svc.open_session("alpha", 1).unwrap();
        let comm = s.comm_world();
        comm.bcast(0, 0, vec![1u8; 64]).unwrap().wait();
        let mut probe = Probe::new();
        probe.enable();
        svc.record_probe(&mut probe);
        assert_eq!(probe.counter("svc/alpha/submitted"), 1);
        assert_eq!(probe.counter("svc/alpha/completed"), 1);
        // Deltas: a second export with no new traffic adds nothing.
        comm.bcast(0, 0, vec![2u8; 64]).unwrap().wait();
        svc.record_probe(&mut probe);
        assert_eq!(probe.counter("svc/alpha/submitted"), 2);
        assert_eq!(probe.counter("svc/alpha/completed"), 2);
        let trace = probe.chrome_trace();
        assert!(trace.contains("svc/alpha/submitted"));
    }
}
