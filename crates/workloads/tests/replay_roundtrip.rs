//! Property tests for the record→export→parse→replay pipeline: a random op
//! stream recorded on ByteFS must survive both serialization formats
//! unchanged, and an exact-speed replay of the parsed trace must reproduce
//! the recorded run — same op sequence (checked by re-recording the replay)
//! and bit-identical remounted device image.

use mssd::MssdConfig;
use proptest::prelude::*;
use workloads::replay::{record_workload, replay_on, RecordingFs, TraceMeta, FS_TRACE_SCHEMA};
use workloads::{FsKind, OpTrace, Recorder, ReplayConfig, ReplaySpeed, Workload};

/// One step of the random workload, phrased over a small universe of file
/// slots so streams alias (overwrites, re-creates, unlinks of live files).
#[derive(Debug, Clone)]
enum SimOp {
    Create { slot: u8 },
    Write { slot: u8, offset: u16, tag: u8, len: u16 },
    Append { slot: u8, tag: u8, len: u16 },
    Fsync { slot: u8 },
    Truncate { slot: u8, size: u16 },
    Read { slot: u8, offset: u16, len: u16 },
    Unlink { slot: u8 },
    Rename { from: u8, to: u8 },
    Mkdir { slot: u8 },
    Tenant { t: u8 },
    Sync,
}

fn sim_op_strategy() -> impl Strategy<Value = SimOp> {
    // The vendored proptest has no weighted prop_oneof; weight by
    // duplicating arms, like mssd's equivalence suites do.
    prop_oneof![
        any::<u8>().prop_map(|slot| SimOp::Create { slot }),
        any::<u8>().prop_map(|slot| SimOp::Create { slot }),
        (any::<u8>(), any::<u16>(), any::<u8>(), any::<u16>())
            .prop_map(|(slot, offset, tag, len)| SimOp::Write { slot, offset, tag, len }),
        (any::<u8>(), any::<u16>(), any::<u8>(), any::<u16>())
            .prop_map(|(slot, offset, tag, len)| SimOp::Write { slot, offset, tag, len }),
        (any::<u8>(), any::<u8>(), any::<u16>()).prop_map(|(slot, tag, len)| SimOp::Append {
            slot,
            tag,
            len
        }),
        any::<u8>().prop_map(|slot| SimOp::Fsync { slot }),
        any::<u8>().prop_map(|slot| SimOp::Fsync { slot }),
        (any::<u8>(), any::<u16>()).prop_map(|(slot, size)| SimOp::Truncate { slot, size }),
        (any::<u8>(), any::<u16>(), any::<u16>()).prop_map(|(slot, offset, len)| SimOp::Read {
            slot,
            offset,
            len
        }),
        any::<u8>().prop_map(|slot| SimOp::Unlink { slot }),
        (any::<u8>(), any::<u8>()).prop_map(|(from, to)| SimOp::Rename { from, to }),
        any::<u8>().prop_map(|slot| SimOp::Mkdir { slot }),
        any::<u8>().prop_map(|t| SimOp::Tenant { t }),
        Just(SimOp::Sync),
    ]
}

/// Replays the generated op list through the `Workload` trait. Ops address
/// files by slot; a slot's fd is kept open between ops and closed at the
/// end, failures are recorded and ignored (the trace captures them too).
struct SimWorkload {
    ops: Vec<SimOp>,
}

const SLOTS: usize = 6;

impl Workload for SimWorkload {
    fn name(&self) -> String {
        "sim".to_string()
    }

    fn setup(
        &self,
        fs: &dyn fskit::FileSystem,
        _rng: &mut rand::rngs::SmallRng,
    ) -> fskit::FsResult<()> {
        fs.mkdir("/sim")
    }

    fn run(
        &self,
        fs: &dyn fskit::FileSystem,
        _rng: &mut rand::rngs::SmallRng,
        _rec: &mut Recorder,
    ) -> fskit::FsResult<()> {
        let mut fds: [Option<fskit::Fd>; SLOTS] = [None; SLOTS];
        let mut scope = None;
        for op in &self.ops {
            match op {
                SimOp::Create { slot } => {
                    let s = *slot as usize % SLOTS;
                    if let Some(fd) = fds[s].take() {
                        fs.close(fd).ok();
                    }
                    fds[s] = fs.create(&format!("/sim/f{s}")).ok();
                }
                SimOp::Write { slot, offset, tag, len } => {
                    let s = *slot as usize % SLOTS;
                    if let Some(fd) = fds[s] {
                        let data = vec![*tag; 1 + (*len as usize % 700)];
                        fs.write(fd, u64::from(*offset % 2048), &data).ok();
                    }
                }
                SimOp::Append { slot, tag, len } => {
                    let s = *slot as usize % SLOTS;
                    if let Some(fd) = fds[s] {
                        // A ramp payload defeats the fill compression, so
                        // both payload encodings are exercised.
                        let n = 1 + (*len as usize % 300);
                        let data: Vec<u8> = (0..n).map(|i| tag.wrapping_add(i as u8)).collect();
                        fs.append(fd, &data).ok();
                    }
                }
                SimOp::Fsync { slot } => {
                    let s = *slot as usize % SLOTS;
                    if let Some(fd) = fds[s] {
                        fs.fsync(fd).ok();
                    }
                }
                SimOp::Truncate { slot, size } => {
                    let s = *slot as usize % SLOTS;
                    if let Some(fd) = fds[s] {
                        fs.truncate(fd, u64::from(*size % 4096)).ok();
                    }
                }
                SimOp::Read { slot, offset, len } => {
                    let s = *slot as usize % SLOTS;
                    if let Some(fd) = fds[s] {
                        fs.read(fd, u64::from(*offset % 2048), 1 + (*len as usize % 512)).ok();
                    }
                }
                SimOp::Unlink { slot } => {
                    let s = *slot as usize % SLOTS;
                    if let Some(fd) = fds[s].take() {
                        fs.close(fd).ok();
                    }
                    fs.unlink(&format!("/sim/f{s}")).ok();
                }
                SimOp::Rename { from, to } => {
                    let f = *from as usize % SLOTS;
                    let t = *to as usize % SLOTS;
                    if f == t {
                        continue;
                    }
                    if let Some(fd) = fds[f].take() {
                        fs.close(fd).ok();
                    }
                    if let Some(fd) = fds[t].take() {
                        fs.close(fd).ok();
                    }
                    fs.unlink(&format!("/sim/f{t}")).ok();
                    fs.rename(&format!("/sim/f{f}"), &format!("/sim/f{t}")).ok();
                }
                SimOp::Mkdir { slot } => {
                    fs.mkdir(&format!("/sim/d{}", *slot as usize % SLOTS)).ok();
                }
                SimOp::Tenant { t } => {
                    // Handles belong to the tenant stream that opened them
                    // (the threaded replayer partitions fd maps by tenant),
                    // so close everything before switching clients.
                    for fd in fds.iter_mut().filter_map(Option::take) {
                        fs.close(fd).ok();
                    }
                    // Re-entering replaces the scope; drop order restores
                    // the outer ctx only at run end, which is fine here.
                    scope = Some(mssd::CtxScope::enter(
                        mssd::trace::ctx().with_tenant(u16::from(*t % 4)),
                    ));
                }
                SimOp::Sync => {
                    fs.sync().ok();
                }
            }
        }
        // Close inside the final tenant scope — handles belong to the
        // stream that opened them.
        for fd in fds.into_iter().flatten() {
            fs.close(fd).ok();
        }
        drop(scope);
        Ok(())
    }
}

/// Strips the fields an exact replay legitimately changes (issue timestamps
/// shift because replay does not re-charge host CPU between ops) so op
/// streams can be compared structurally.
fn shape(trace: &OpTrace) -> Vec<(u64, u16, bool, workloads::OpKind)> {
    trace.records.iter().map(|r| (r.seq, r.tenant, r.ok, r.op.clone())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn recorded_streams_round_trip_and_replay_bit_for_bit(
        ops in proptest::collection::vec(sim_op_strategy(), 1..30),
        seed in any::<u64>(),
    ) {
        let wl = SimWorkload { ops };
        let recorded = record_workload(FsKind::ByteFs, MssdConfig::small_test(), &wl, seed)
            .expect("recording the sim workload");

        // The text serialization is lossless.
        let text = recorded.trace.to_text();
        let parsed = OpTrace::from_text(&text).expect("text round-trip parses");
        prop_assert_eq!(&parsed, &recorded.trace);
        prop_assert_eq!(parsed.meta.schema, FS_TRACE_SCHEMA);

        // Exact replay of the *parsed* trace through a second recorder: the
        // re-recorded op stream matches the original record for record
        // (same ops, same fds, same outcomes, same tenants) and the
        // remounted image digest is bit-identical.
        let (device, fs) = FsKind::ByteFs.build(MssdConfig::small_test());
        let rec_fs = RecordingFs::new(fs);
        let rcfg = ReplayConfig { speed: ReplaySpeed::Exact, threads: 1 };
        let out = replay_on(&device, &rec_fs, &parsed, &rcfg);
        prop_assert_eq!(out.divergences, 0, "same-fs replay must not diverge");
        prop_assert_eq!(out.remount_digest, recorded.remount_digest);
        let rerecorded = rec_fs.into_trace(TraceMeta {
            schema: FS_TRACE_SCHEMA,
            name: "sim".to_string(),
            seed,
            capacity_bytes: 0,
            page_size: 0,
        });
        prop_assert_eq!(shape(&rerecorded), shape(&recorded.trace));
    }
}
