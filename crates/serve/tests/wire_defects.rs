//! Property tests of the serve protocol against defective bytes: any
//! truncation of any `Request`/`Reply` frame reads back as a typed
//! error, any bitflip reads back as a typed error or a valid frame —
//! and the payload decoders never panic on arbitrary bytes.

use std::io::Cursor;
use std::sync::OnceLock;
use std::time::Duration;

use hetrta_cond::CondGenParams;
use hetrta_engine::{Engine, GeneratorPreset, SweepEvent, SweepSpec};
use hetrta_sched::taskset::TaskSetParams;
use hetrta_serve::{Reply, Request};
use proptest::prelude::*;

fn tiny_spec() -> SweepSpec {
    SweepSpec::fractions(GeneratorPreset::Small, vec![2], vec![0.1], 1, 0xFADE)
}

/// Every protocol message once, encoded to its frame bytes. The `Done`
/// replies carry real aggregates of every cell shape — task, acceptance
/// and conditional (computed once — the expensive part).
fn sample_frames() -> &'static Vec<Vec<u8>> {
    static FRAMES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    FRAMES.get_or_init(|| {
        let shapes = [
            tiny_spec(),
            SweepSpec::acceptance(TaskSetParams::small(2, 1.0), vec![2], vec![0.5], 2, 2, 3),
            SweepSpec::conditional(CondGenParams::small(), vec![2], vec![0.3], 2, 64),
        ];
        let engine = Engine::new(1);
        let done = shapes.iter().map(|spec| Reply::Done {
            completed: spec.job_count(),
            cancelled: false,
            events_dropped: 0,
            aggregate: engine.run(spec).expect("tiny sweep").aggregate,
        });
        let requests = [
            Request::Submit {
                tenant: "prop".into(),
                spec: Box::new(tiny_spec()),
            },
            Request::Cancel,
            Request::Stats,
            Request::Shutdown,
        ];
        let replies = [
            Reply::Accepted { jobs: 16 },
            Reply::Busy {
                retry_after_ms: 200,
            },
            Reply::Event(SweepEvent::JobFinished {
                index: 3,
                cell: 1,
                key: 0xDEAD_BEEF,
                cache_hit: true,
                wall_time: Duration::from_micros(417),
            }),
            Reply::Error {
                message: "sweep failed: demo".into(),
            },
            Reply::StatsReply {
                text: "serve.sweeps 3\n".into(),
            },
            Reply::ShutdownAck,
        ];
        let mut frames = Vec::new();
        for request in &requests {
            let mut buf = Vec::new();
            request.write_to(&mut buf).expect("encode request");
            frames.push(buf);
        }
        for reply in replies.iter().chain(&done.collect::<Vec<_>>()) {
            let mut buf = Vec::new();
            reply.write_to(&mut buf).expect("encode reply");
            frames.push(buf);
        }
        frames
    })
}

proptest! {
    #[test]
    fn truncated_protocol_frames_read_back_as_typed_errors(
        pick in 0usize..10_000,
        cut_seed in 0usize..1_000_000,
    ) {
        let frames = sample_frames();
        let frame = &frames[pick % frames.len()];
        let cut = cut_seed % frame.len();
        let prefix = &frame[..cut];
        prop_assert!(Request::read_from(&mut Cursor::new(prefix)).is_err());
        prop_assert!(Reply::read_from(&mut Cursor::new(prefix)).is_err());
    }

    #[test]
    fn bitflipped_protocol_frames_never_panic(
        pick in 0usize..10_000,
        bit_seed in 0usize..10_000_000,
    ) {
        let frames = sample_frames();
        let frame = &frames[pick % frames.len()];
        let bit = bit_seed % (frame.len() * 8);
        let mut corrupted = frame.clone();
        corrupted[bit / 8] ^= 1 << (bit % 8);
        // A flip lands in a checksummed region (typed error) or in the
        // kind byte — where it may alias another valid payload-free kind,
        // which is a *valid* frame of a different meaning, not a defect.
        let _ = Request::read_from(&mut Cursor::new(&corrupted));
        let _ = Reply::read_from(&mut Cursor::new(&corrupted));
    }

    #[test]
    fn arbitrary_payload_bytes_never_panic_the_decoders(
        kind in 0u8..=255,
        payload in proptest::collection::vec(0u8..=255, 0..200),
    ) {
        let _ = Request::decode(kind, &payload);
        let _ = Reply::decode(kind, &payload);
    }
}
