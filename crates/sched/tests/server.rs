//! The service layer end to end: delivery through tickets, coalescing,
//! admission control, subgroups, and submit-time validation.

use bgp_sched::{
    CollectiveServer, SchedError, ServerConfig, TenantId, DEFAULT_TENANT, MAX_GROUP_RANKS,
};

#[test]
fn server_bcast_delivers_to_every_member() {
    let server = CollectiveServer::new(2, 4);
    let payload: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
    let t = server
        .submit_bcast(&[0, 1, 2, 3], 1, 2, payload.clone())
        .unwrap();
    let got = t.wait();
    assert_eq!(got.len(), 8);
    for member in &got {
        assert_eq!(*member, payload);
    }
    let stats = server.stats();
    assert_eq!(stats.submitted, 1);
    assert!(stats.batches >= 1);
    // The engine stash drops nothing.
    assert_eq!(stats.stash_evicted, 0);
}

#[test]
fn server_allreduce_sums_all_member_inputs() {
    let server = CollectiveServer::new(2, 4);
    let count = 1500;
    let inputs: Vec<Vec<f64>> = (0..8)
        .map(|m| (0..count).map(|i| (m * 1000 + i) as f64).collect())
        .collect();
    let expect: Vec<f64> = (0..count)
        .map(|i| (0..8).map(|m| (m * 1000 + i) as f64).sum())
        .collect();
    let t = server.submit_allreduce(&[0, 1, 2, 3], inputs).unwrap();
    let got = t.wait();
    assert_eq!(got.len(), 8);
    for member in &got {
        assert_eq!(*member, expect);
    }
}

#[test]
fn server_subgroup_results_are_member_ordered() {
    // Group {0, 2} on 2 nodes: 4 members, global order (node, index).
    let server = CollectiveServer::new(2, 2);
    let inputs: Vec<Vec<f64>> = (0..4).map(|m| vec![m as f64, 10.0]).collect();
    let t = server.submit_allreduce(&[0, 1], inputs).unwrap();
    let got = t.wait();
    assert_eq!(got, vec![vec![6.0, 40.0]; 4]);

    let t = server.submit_bcast(&[1], 0, 1, vec![42u8; 16]).unwrap();
    let got = t.wait();
    // Only rank 1 of each node is a member: two slots.
    assert_eq!(got, vec![vec![42u8; 16]; 2]);
}

#[test]
fn small_same_root_bcasts_coalesce() {
    // Occupy the dispatcher with a heavy op so the small ones pile up and
    // get drained as one batch (pipeline 1: the dispatcher blocks
    // collecting the heavy job while we enqueue).
    let cfg = ServerConfig {
        pipeline: 1,
        ..ServerConfig::default()
    };
    let server = CollectiveServer::with_config(2, 4, cfg);
    let heavy = server
        .submit_bcast(&[0, 1, 2, 3], 0, 0, vec![9u8; 4 << 20])
        .unwrap();
    let payloads: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i + 1; 64]).collect();
    let tickets: Vec<_> = payloads
        .iter()
        .map(|p| server.submit_bcast(&[0, 1, 2, 3], 0, 0, p.clone()).unwrap())
        .collect();
    let heavy_got = heavy.wait();
    assert!(heavy_got.iter().all(|m| m == &vec![9u8; 4 << 20]));
    for (p, t) in payloads.iter().zip(tickets) {
        let got = t.wait();
        assert_eq!(got.len(), 8);
        for member in &got {
            assert_eq!(member, p, "coalesced child must receive its own slice");
        }
    }
    let stats = server.stats();
    assert!(
        stats.coalesced >= 2,
        "expected fused broadcasts, stats: {stats:?}"
    );
    assert_eq!(stats.submitted, 7);
}

#[test]
fn coalescing_disabled_still_delivers() {
    let cfg = ServerConfig {
        coalesce_max_ops: 1,
        ..ServerConfig::default()
    };
    let server = CollectiveServer::with_config(1, 2, cfg);
    let tickets: Vec<_> = (0..4u8)
        .map(|i| server.submit_bcast(&[0, 1], 0, 0, vec![i; 32]).unwrap())
        .collect();
    for (i, t) in tickets.into_iter().enumerate() {
        assert_eq!(t.wait(), vec![vec![i as u8; 32]; 2]);
    }
    assert_eq!(server.stats().coalesced, 0);
}

#[test]
fn try_submit_backpressures_at_the_admission_bound() {
    let cfg = ServerConfig {
        max_pending: 1,
        batch_max_ops: 1,
        pipeline: 1,
        ..ServerConfig::default()
    };
    let server = CollectiveServer::with_config(2, 4, cfg);
    // Heavy op: the dispatcher takes it (singleton batch) and then blocks
    // collecting it before it can drain anything else.
    let heavy = server
        .submit_bcast(&[0, 1, 2, 3], 0, 0, vec![1u8; 4 << 20])
        .unwrap();
    // Fills the queue to its bound of 1...
    let queued = server
        .submit_bcast(&[0, 1, 2, 3], 0, 0, vec![2u8; 64])
        .unwrap();
    // ...so a non-blocking submit must be refused.
    let err = server
        .try_submit_bcast(&[0, 1, 2, 3], 0, 0, vec![3u8; 64])
        .unwrap_err();
    assert_eq!(err, SchedError::Backpressure);
    heavy.wait();
    queued.wait();
    assert_eq!(server.stats().submitted, 2);
}

#[test]
fn zero_length_submissions_complete_immediately() {
    let server = CollectiveServer::new(1, 2);
    let t = server.submit_bcast(&[0, 1], 0, 0, Vec::new()).unwrap();
    assert!(t.is_done());
    assert_eq!(t.wait(), vec![Vec::<u8>::new(); 2]);
    let t = server
        .submit_allreduce(&[0, 1], vec![Vec::new(), Vec::new()])
        .unwrap();
    assert!(t.is_done());
    assert_eq!(t.wait(), vec![Vec::<f64>::new(); 2]);
    let stats = server.stats();
    assert_eq!((stats.submitted, stats.completed), (2, 2));
}

#[test]
fn submission_validation_is_typed() {
    let server = CollectiveServer::new(1, 2);
    assert!(matches!(
        server.submit_bcast(&[], 0, 0, vec![1]).unwrap_err(),
        SchedError::BadGroup(_)
    ));
    assert!(matches!(
        server.submit_bcast(&[0, 1], 4, 0, vec![1]).unwrap_err(),
        SchedError::BadGroup(_)
    ));
    assert!(matches!(
        server.submit_bcast(&[0, 1], 0, 7, vec![1]).unwrap_err(),
        SchedError::BadGroup(_)
    ));
    assert!(matches!(
        server
            .submit_allreduce(&[0, 1], vec![vec![1.0]])
            .unwrap_err(),
        SchedError::BadGroup(_)
    ));
    assert!(matches!(
        server
            .submit_allreduce(&[0, 1], vec![vec![1.0], vec![1.0, 2.0]])
            .unwrap_err(),
        SchedError::BadGroup(_)
    ));
}

#[test]
fn group_size_limit_boundary() {
    // The size check runs before the rank-range check, so the limit is
    // testable on a small cluster: exactly MAX_GROUP_RANKS sorted ranks
    // passes the size check (and then fails on range), one more is
    // rejected with a message naming the actual limit.
    let server = CollectiveServer::new(1, 2);
    let at_limit: Vec<usize> = (0..MAX_GROUP_RANKS).collect();
    match server.submit_bcast(&at_limit, 0, 0, vec![1]).unwrap_err() {
        SchedError::BadGroup(why) => {
            assert!(
                why.contains("out of range"),
                "at the limit the size check must pass (got: {why})"
            );
        }
        other => panic!("unexpected error: {other:?}"),
    }
    let over_limit: Vec<usize> = (0..MAX_GROUP_RANKS + 1).collect();
    match server.submit_bcast(&over_limit, 0, 0, vec![1]).unwrap_err() {
        SchedError::BadGroup(why) => {
            assert!(
                why.contains(&MAX_GROUP_RANKS.to_string()),
                "over the limit the message must name the limit (got: {why})"
            );
        }
        other => panic!("unexpected error: {other:?}"),
    }
}

#[test]
fn unknown_tenant_is_a_typed_error() {
    let server = CollectiveServer::new(1, 2);
    let bogus = TenantId::from_raw_for_tests(99);
    assert_eq!(
        server
            .submit_bcast_as(bogus, &[0, 1], 0, 0, vec![1])
            .unwrap_err(),
        SchedError::UnknownTenant
    );
    assert_eq!(
        server
            .submit_allreduce_as(bogus, &[0, 1], vec![vec![1.0], vec![1.0]])
            .unwrap_err(),
        SchedError::UnknownTenant
    );
    assert_eq!(
        server.tenant_stats(bogus).unwrap_err(),
        SchedError::UnknownTenant
    );
}

#[test]
fn per_tenant_backpressure_leaves_other_tenants_admitting() {
    let cfg = ServerConfig {
        tenant_max_pending: 1,
        max_pending: 64,
        batch_max_ops: 1,
        pipeline: 1,
        ..ServerConfig::default()
    };
    let server = CollectiveServer::with_config(2, 4, cfg);
    let flooder = server.add_tenant(1);
    let victim = server.add_tenant(1);
    // Heavy op occupies the dispatcher (singleton batch, pipeline 1).
    let heavy = server
        .submit_bcast(&[0, 1, 2, 3], 0, 0, vec![1u8; 4 << 20])
        .unwrap();
    // The flooder fills its own per-tenant bound of 1...
    let queued = server
        .submit_bcast_as(flooder, &[0, 1, 2, 3], 0, 0, vec![2u8; 64])
        .unwrap();
    // ...and is refused, while the other tenant still gets in.
    let err = server
        .try_submit_bcast_as(flooder, &[0, 1, 2, 3], 0, 0, vec![3u8; 64])
        .unwrap_err();
    assert_eq!(err, SchedError::Backpressure);
    let admitted = server
        .try_submit_bcast_as(victim, &[0, 1, 2, 3], 0, 0, vec![4u8; 64])
        .unwrap();
    heavy.wait();
    queued.wait();
    admitted.wait();
    let fs = server.tenant_stats(flooder).unwrap();
    assert_eq!((fs.submitted, fs.completed, fs.rejected), (1, 1, 1));
    let vs = server.tenant_stats(victim).unwrap();
    assert_eq!((vs.submitted, vs.completed, vs.rejected), (1, 1, 0));
    assert_eq!(server.stats().rejected, 1);
}

#[test]
fn tenant_stats_attribute_traffic_per_tenant() {
    let server = CollectiveServer::new(1, 2);
    let a = server.add_tenant(2);
    let b = server.add_tenant(5);
    let mut tickets = Vec::new();
    for i in 0..3u8 {
        tickets.push(
            server
                .submit_bcast_as(a, &[0, 1], 0, 0, vec![i; 32])
                .unwrap(),
        );
    }
    tickets.push(
        server
            .submit_bcast_as(b, &[0, 1], 0, 0, vec![9u8; 32])
            .unwrap(),
    );
    for t in tickets {
        t.wait();
    }
    let sa = server.tenant_stats(a).unwrap();
    assert_eq!((sa.tenant, sa.weight), (a.index(), 2));
    assert_eq!((sa.submitted, sa.completed, sa.queue_depth), (3, 3, 0));
    let sb = server.tenant_stats(b).unwrap();
    assert_eq!((sb.submitted, sb.completed), (1, 1));
    assert_eq!(sb.weight, 5);
    let d = server.tenant_stats(DEFAULT_TENANT).unwrap();
    assert_eq!(d.submitted, 0);
    let all = server.all_tenant_stats();
    assert_eq!(all.len(), 3);
    assert_eq!(all[a.index()], sa);
    // The global view sums the tenants.
    assert_eq!(server.stats().submitted, 4);
    assert_eq!(server.stats().completed, 4);
}

#[test]
fn drr_drains_every_tenant_with_mixed_weights() {
    // Interleave submissions from three tenants with very different
    // weights; every op must still complete (DRR is work-conserving and
    // starvation-free), and completion counts land on the right tenant.
    let cfg = ServerConfig {
        drr_quantum: 256, // tiny quantum: forces multi-round deficits
        ..ServerConfig::default()
    };
    let server = CollectiveServer::with_config(1, 2, cfg);
    let heavy = server.add_tenant(8);
    let light = server.add_tenant(1);
    let mut tickets = Vec::new();
    for i in 0..8u8 {
        tickets.push(
            server
                .submit_bcast_as(heavy, &[0, 1], 0, 0, vec![i; 2048])
                .unwrap(),
        );
        tickets.push(
            server
                .submit_bcast_as(light, &[0, 1], 0, 0, vec![i ^ 0xff; 2048])
                .unwrap(),
        );
    }
    for t in tickets {
        t.wait();
    }
    assert_eq!(server.tenant_stats(heavy).unwrap().completed, 8);
    assert_eq!(server.tenant_stats(light).unwrap().completed, 8);
}
