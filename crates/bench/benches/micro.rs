//! Criterion microbenchmarks of the core data structures: the message
//! codec, the ring buffer, the TCQ combining queue vs a mutex (the §2.2
//! "lock-based sharing is up to 2.3× slower" claim — note that on a
//! single-core host the contended comparison is illustrative only; the
//! cluster-scale version is Figure 9), the KV store, and the index.

use std::sync::Mutex;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use flock_bench::ContendedTcq;
use flock_core::msg::{self, EntryMeta, EntryRef, MsgHeader};
use flock_core::ring::{RingConsumer, RingLayout, RingProducer};
use flock_core::tcq::{Outcome, Tcq};
use flock_fabric::{Access, MrTable};
use flock_hydralist::{HydraConfig, HydraList};
use flock_kvstore::{KvConfig, KvStore};

fn bench_codec(c: &mut Criterion) {
    let payloads: Vec<Vec<u8>> = (0..8).map(|i| vec![i as u8; 64]).collect();
    let entries: Vec<EntryRef<'_>> = payloads
        .iter()
        .enumerate()
        .map(|(i, p)| EntryRef {
            meta: EntryMeta {
                len: 64,
                thread_id: i as u32,
                seq: i as u64,
                rpc_id: 1,
            },
            data: p,
        })
        .collect();
    let header = MsgHeader {
        total_len: 0,
        count: 0,
        flags: 0,
        canary: 0xABCD,
        head: 0,
        aux: 0,
    };
    let mut buf = vec![0u8; 4096];
    c.bench_function("msg_encode_8x64B", |b| {
        b.iter(|| msg::encode(black_box(&mut buf), &header, &entries).unwrap())
    });
    let n = msg::encode(&mut buf, &header, &entries).unwrap();
    c.bench_function("msg_decode_8x64B", |b| {
        b.iter(|| {
            let v = msg::decode(black_box(&buf[..n])).unwrap().unwrap();
            black_box(v.to_entries().len())
        })
    });
}

fn bench_ring(c: &mut Criterion) {
    let table = MrTable::new();
    let mr = table.register(1 << 16, Access::REMOTE_ALL);
    let layout = RingLayout::new(0, 1 << 16);
    c.bench_function("ring_produce_consume_64B", |b| {
        let mut prod = RingProducer::new(layout);
        let mut cons = RingConsumer::new(layout);
        let mut staging = vec![0u8; 512];
        let payload = [7u8; 64];
        let header = MsgHeader {
            total_len: 0,
            count: 0,
            flags: 0,
            canary: 0x1234,
            head: 0,
            aux: 0,
        };
        let n = msg::encode(
            &mut staging,
            &header,
            &[EntryRef {
                meta: EntryMeta {
                    len: 64,
                    thread_id: 0,
                    seq: 0,
                    rpc_id: 0,
                },
                data: &payload,
            }],
        )
        .unwrap();
        b.iter(|| {
            let res = prod.reserve(n).unwrap();
            if let Some((woff, wlen)) = res.wrap {
                let rec = RingProducer::wrap_record(wlen, 0x1234);
                mr.write(woff, &rec).unwrap();
            }
            mr.write(res.offset, &staging[..n]).unwrap();
            let m = cons.poll(&mr).unwrap().expect("message");
            prod.update_head(cons.head());
            black_box(m.len())
        })
    });
    // Wrap-heavy traffic: a 4 KiB ring with ~1.6 KiB messages wraps
    // every third reservation, exercising the in-place
    // `write_wrap_record` path (formerly a scratch-Vec per wrap).
    c.bench_function("ring_wrap_boundary_1600B", |b| {
        let mr = table.register(1 << 12, Access::REMOTE_ALL);
        let layout = RingLayout::new(0, 1 << 12);
        let mut prod = RingProducer::new(layout);
        let mut cons = RingConsumer::new(layout);
        let mut staging = vec![0u8; 2048];
        let payload = [7u8; 1600];
        let header = MsgHeader {
            total_len: 0,
            count: 0,
            flags: 0,
            canary: 0x1234,
            head: 0,
            aux: 0,
        };
        let n = msg::encode(
            &mut staging,
            &header,
            &[EntryRef {
                meta: EntryMeta {
                    len: 1600,
                    thread_id: 0,
                    seq: 0,
                    rpc_id: 0,
                },
                data: &payload,
            }],
        )
        .unwrap();
        b.iter(|| {
            let res = prod.reserve(n).unwrap();
            if let Some((woff, wlen)) = res.wrap {
                mr.with_write(|buf| {
                    RingProducer::write_wrap_record(&mut buf[woff..woff + wlen], 0x1234);
                });
            }
            mr.write(res.offset, &staging[..n]).unwrap();
            let m = cons.poll(&mr).unwrap().expect("message");
            prod.update_head(cons.head());
            black_box(m.len())
        })
    });
}

fn bench_tcq(c: &mut Criterion) {
    // Pooled (default) vs boxed (the pre-pooling behavior, selected at
    // runtime via `with_pooling`): same protocol, only the node/scratch
    // allocation strategy differs.
    c.bench_function("tcq_pooled_join_complete_uncontended", |b| {
        let tcq: Tcq<u64> = Tcq::with_pooling(16, true);
        b.iter(|| match tcq.join(black_box(42)) {
            Outcome::Lead(batch) => tcq.complete(batch),
            Outcome::Sent => unreachable!(),
        })
    });
    c.bench_function("tcq_boxed_join_complete_uncontended", |b| {
        let tcq: Tcq<u64> = Tcq::with_pooling(16, false);
        b.iter(|| match tcq.join(black_box(42)) {
            Outcome::Lead(batch) => tcq.complete(batch),
            Outcome::Sent => unreachable!(),
        })
    });
    c.bench_function("mutex_lock_send_uncontended", |b| {
        // The FaRM-style alternative: serialize each send under a lock.
        let lock = Mutex::new(0u64);
        b.iter(|| {
            let mut g = lock.lock().unwrap();
            *g = black_box(42);
        })
    });
    // Contended: 8 pre-spawned workers, 64 ops each per barrier-gated
    // round, so one "iter" is a 512-op round (see ContendedTcq; the
    // bench_baseline binary reports the same scenario as ns/op).
    c.bench_function("tcq_pooled_contended8_round512", |b| {
        let h = ContendedTcq::new(true, 8, 64);
        b.iter(|| h.round())
    });
    c.bench_function("tcq_boxed_contended8_round512", |b| {
        let h = ContendedTcq::new(false, 8, 64);
        b.iter(|| h.round())
    });
}

fn bench_kvstore(c: &mut Criterion) {
    let kv = KvStore::new(KvConfig {
        partitions: 4,
        stripes: 16,
    });
    for k in 0..100_000u64 {
        kv.put(k, &k.to_le_bytes());
    }
    let mut i = 0u64;
    c.bench_function("kvstore_get", |b| {
        b.iter(|| {
            i = (i + 7919) % 100_000;
            black_box(kv.get(black_box(i)))
        })
    });
    c.bench_function("kvstore_occ_cycle", |b| {
        b.iter(|| {
            kv.try_lock(1);
            kv.update_and_unlock(1, &7u64.to_le_bytes());
        })
    });
}

fn bench_hydralist(c: &mut Criterion) {
    let h = HydraList::new(HydraConfig::default());
    for k in 0..100_000u64 {
        h.insert(k, k);
    }
    let mut i = 0u64;
    c.bench_function("hydralist_get", |b| {
        b.iter(|| {
            i = (i + 7919) % 100_000;
            black_box(h.get(black_box(i)))
        })
    });
    c.bench_function("hydralist_scan64", |b| {
        b.iter(|| {
            i = (i + 7919) % 100_000;
            black_box(h.scan(black_box(i), 64).len())
        })
    });
}

fn bench_sim_engine(c: &mut Criterion) {
    use flock_sim::{Ns, Sim};
    c.bench_function("sim_engine_1k_events", |b| {
        b.iter(|| {
            struct W {
                ticks: u64,
            }
            fn tick(w: &mut W, sim: &mut Sim<W>) {
                w.ticks += 1;
                if !w.ticks.is_multiple_of(4) {
                    sim.after(Ns(10), tick);
                }
            }
            let mut sim: Sim<W> = Sim::new();
            let mut w = W { ticks: 0 };
            for i in 0..250 {
                sim.at(Ns(i), tick);
            }
            sim.run(&mut w);
            black_box(w.ticks)
        })
    });
    c.bench_function("sim_multiserver_admit", |b| {
        use flock_sim::MultiServer;
        let mut r = MultiServer::new(32);
        let mut t = 0u64;
        b.iter(|| {
            t += 7;
            black_box(r.admit(Ns(t), Ns(100)))
        })
    });
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_codec, bench_ring, bench_tcq, bench_kvstore, bench_hydralist, bench_sim_engine
);
criterion_main!(micro);
