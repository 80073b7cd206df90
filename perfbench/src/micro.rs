//! Single-threaded wall-clock micro timings of the layers the lab
//! workloads exercise, taken outside the lab at each workload's request
//! sizes. Virtual metrics cannot see a faster implementation of the
//! same work; these can.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use flock_core::msg::{self, EntryMeta, EntryRef, MsgHeader};
use flock_core::ring::{RingConsumer, RingLayout, RingProducer};
use flock_core::tcq::{Outcome, Tcq};
use flock_fabric::{Access, Completion, CompletionQueue, CqOpcode, CqStatus, MrTable, QpNum, WrId};
use flock_kvstore::{KvConfig, KvStore};
use flock_sim::vtime::VirtualLab;
use flock_sync::clock;

/// Wall ns per call of the measured layers.
#[derive(Debug, Default, Clone, Copy)]
pub struct Micro {
    pub lab_handover_ns: f64,
    pub tcq_join_complete_ns: f64,
    pub msg_encode_ns: f64,
    pub msg_decode_ns: f64,
    pub ring_reserve_poll_ns: f64,
    pub cq_push_poll_ns: f64,
    pub kv_get_ns: f64,
    pub kv_put_ns: f64,
}

/// Median over `rounds` rounds of the mean ns per call of `f`, each
/// round running `f` in batches until `per_round` has passed.
fn ns_per_call(per_round: Duration, mut f: impl FnMut()) -> f64 {
    const ROUNDS: usize = 5;
    // Calibrate a batch that takes about 1/50 of a round.
    let mut batch = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        if t.elapsed() >= per_round / 50 || batch >= 1 << 24 {
            break;
        }
        batch *= 2;
    }
    let mut rounds = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let (mut calls, start) = (0u64, Instant::now());
        while start.elapsed() < per_round {
            for _ in 0..batch {
                f();
            }
            calls += batch;
        }
        rounds.push(start.elapsed().as_nanos() as f64 / calls as f64);
    }
    rounds.sort_by(f64::total_cmp);
    rounds[ROUNDS / 2]
}

/// Wall ns per lab handover: two tasks trading the core by yields.
fn lab_handover_ns() -> f64 {
    const YIELDS: u64 = 20_000;
    let mut rounds: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let (_, report) = VirtualLab::run_report(|| {
                let other = clock::spawn("ping", || {
                    for _ in 0..YIELDS {
                        clock::yield_now();
                    }
                });
                for _ in 0..YIELDS {
                    clock::yield_now();
                }
                other.join().expect("ping task");
            });
            t.elapsed().as_nanos() as f64 / report.handovers.max(1) as f64
        })
        .collect();
    rounds.sort_by(f64::total_cmp);
    rounds[2]
}

fn header() -> MsgHeader {
    MsgHeader {
        total_len: 0,
        count: 0,
        flags: 0,
        canary: 0x1234,
        head: 0,
        aux: 0,
    }
}

/// Time every layer with messages of `entries` requests of
/// `entry_bytes` each, and kv values of `value_bytes`.
pub fn measure(
    entry_bytes: usize,
    entries: usize,
    value_bytes: usize,
    per_round: Duration,
) -> Micro {
    let payload = vec![7u8; entry_bytes];
    let refs: Vec<EntryRef<'_>> = (0..entries)
        .map(|i| EntryRef {
            meta: EntryMeta {
                len: entry_bytes as u32,
                thread_id: i as u32,
                seq: i as u64,
                rpc_id: 1,
            },
            data: &payload,
        })
        .collect();
    let mut buf = vec![0u8; msg::encoded_size(std::iter::repeat_n(entry_bytes, entries))];
    let n = msg::encode(&mut buf, &header(), &refs).expect("encode");

    let msg_encode_ns = ns_per_call(per_round, || {
        black_box(msg::encode(black_box(&mut buf), &header(), &refs).expect("encode"));
    });
    let msg_decode_ns = ns_per_call(per_round, || {
        let v = msg::decode(black_box(&buf[..n]))
            .expect("decode")
            .expect("message");
        black_box(v.entry_ranges().count());
    });

    let tcq: Tcq<u64> = Tcq::new(16);
    let mut i = 0u64;
    let tcq_join_complete_ns = ns_per_call(per_round, || {
        i += 1;
        match tcq.join(black_box(i)) {
            Outcome::Lead(batch) => tcq.complete(batch),
            Outcome::Sent => unreachable!("a lone joiner always leads"),
        }
    });

    let table = MrTable::new();
    let mr = table.register(1 << 16, Access::REMOTE_ALL);
    let layout = RingLayout::new(0, 1 << 16);
    let mut prod = RingProducer::new(layout);
    let mut cons = RingConsumer::new(layout);
    let ring_reserve_poll_ns = ns_per_call(per_round, || {
        let res = prod.reserve(n).expect("reserve");
        if let Some((woff, wlen)) = res.wrap {
            mr.with_write(|b| RingProducer::write_wrap_record(&mut b[woff..woff + wlen], 0x1234));
        }
        mr.write(res.offset, &buf[..n]).expect("ring write");
        let m = cons.poll(&mr).expect("poll").expect("message");
        prod.update_head(cons.head());
        black_box(m.len());
    });

    let cq: Arc<CompletionQueue> = CompletionQueue::new(256);
    let mut wr = 0u64;
    let cq_push_poll_ns = ns_per_call(per_round, || {
        wr += 1;
        cq.push(Completion {
            wr_id: WrId(wr),
            status: CqStatus::Success,
            opcode: CqOpcode::Write,
            byte_len: n,
            imm: None,
            src: None,
            qpn: QpNum(1),
        });
        black_box(cq.poll_one().expect("completion"));
    });

    let kv = KvStore::new(KvConfig::default());
    let value = vec![9u8; value_bytes];
    for k in 0..1024u64 {
        kv.put(k, &value);
    }
    let mut k = 0u64;
    let kv_get_ns = ns_per_call(per_round, || {
        k = (k + 7) & 1023;
        black_box(kv.get(black_box(k)));
    });
    let kv_put_ns = ns_per_call(per_round, || {
        k = (k + 7) & 1023;
        kv.put(black_box(k), &value);
    });

    Micro {
        lab_handover_ns: lab_handover_ns(),
        tcq_join_complete_ns,
        msg_encode_ns,
        msg_decode_ns,
        ring_reserve_poll_ns,
        cq_push_poll_ns,
        kv_get_ns,
        kv_put_ns,
    }
}
