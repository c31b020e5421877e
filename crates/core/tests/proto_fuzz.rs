//! Codec robustness: the wire decoder must never panic, whatever bytes
//! arrive, must never reserve memory a datagram's size does not back,
//! and encode∘decode must be the identity on valid messages under
//! random mutation of unrelated inputs; a datagram packing several
//! envelopes is delivered whole or not at all. The structured cases
//! walk every `Message` variant of the shared sample table; the random
//! ones run on the in-tree seeded harness ([`hiloc_util::prop`]), case
//! counts mirroring the original proptest configuration.

use hiloc_core::model::{Hlc, LocationDescriptor, ObjectId, RangeQuery, RegInfo, Sighting};
use hiloc_core::proto::{DeltaBody, DeltaRecord, Message, TransferRecord};
use hiloc_geo::Point;
use hiloc_net::wire::{WireCodec, MAX_ITEMS};
use hiloc_net::{decode_datagram, ClientId, CorrId, Envelope, Outbox, ServerId};
use hiloc_util::prop::check;
use hiloc_util::rng::RngExt;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The codec's own sample table (one instance of every variant).
#[path = "../src/proto/samples.rs"]
mod samples;

const CASES: u32 = 512;

thread_local! {
    /// The largest single allocation this thread has requested since
    /// the cell was last reset. Per thread, because the test harness
    /// runs this file's tests concurrently.
    static LARGEST_ALLOC: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting each thread's largest request.
struct Watching;

impl Watching {
    fn note(size: usize) {
        // `try_with`: a thread may still allocate while its locals are
        // being torn down; those requests are of no interest.
        let _ = LARGEST_ALLOC.try_with(|largest| largest.set(largest.get().max(size)));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping is a
// const-initialised `Cell<usize>` without a destructor, so noting a
// size neither allocates nor touches memory the allocator hands out.
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`; the caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Watching = Watching;

/// Arbitrary bytes: decode returns None or a message, never panics.
#[test]
fn random_bytes_never_panic() {
    check(CASES, |g| {
        let bytes = g.bytes(255);
        let _ = Message::from_bytes(&bytes);
    });
}

/// Every sample variant, every byte offset, every single-bit flip and
/// the whole-byte flip: decode must not panic (it may return None or a
/// different valid message).
#[test]
fn bit_flipped_messages_never_panic() {
    let masks: Vec<u8> = (0..8).map(|bit| 1 << bit).chain([0xFF]).collect();
    for msg in samples::sample_messages() {
        let bytes = msg.to_bytes();
        for at in 0..bytes.len() {
            for mask in &masks {
                let mut flipped = bytes.clone();
                flipped[at] ^= mask;
                let _ = Message::from_bytes(&flipped);
            }
        }
    }
}

/// Every sample variant with a huge element count written over every
/// offset — in particular over the count of every `Vec` field and
/// polygon: decode must refuse it without reserving room for elements
/// the datagram does not carry. (A 5-byte `updateBatch` claiming a
/// million sightings used to reserve 40 MB before failing.)
#[test]
fn oversized_counts_never_reserve_memory() {
    // Generous for any honest decode of a sample (a few hundred bytes).
    const LIMIT: usize = 1 << 16;
    for msg in samples::sample_messages() {
        let bytes = msg.to_bytes();
        for count in [MAX_ITEMS, MAX_ITEMS / 40, 10_000, u32::MAX] {
            for at in 1..bytes.len().saturating_sub(3) {
                let mut hostile = bytes.clone();
                hostile[at..at + 4].copy_from_slice(&count.to_le_bytes());
                LARGEST_ALLOC.with(|largest| largest.set(0));
                let _ = Message::from_bytes(&hostile);
                // And with nothing at all behind the count.
                let _ = Message::from_bytes(&hostile[..at + 4]);
                let largest = LARGEST_ALLOC.with(Cell::get);
                assert!(
                    largest <= LIMIT,
                    "{}: count {count} at offset {at} made the decoder request {largest} bytes",
                    msg.label()
                );
            }
        }
    }
}

/// Round-trip across the numeric input space.
#[test]
fn update_roundtrip_across_input_space() {
    check(CASES, |g| {
        let oid = g.random::<u64>();
        let t = g.random::<u64>();
        let x = g.random_range(-1e9..1e9);
        let y = g.random_range(-1e9..1e9);
        let acc = g.random_range(0.0..1e6);
        let msg = Message::UpdateReq {
            sighting: Sighting::new(ObjectId(oid), t, Point::new(x, y), acc),
        };
        assert_eq!(Message::from_bytes(&msg.to_bytes()), Some(msg));
    });
}

/// Concatenated messages decode sequentially via `decode` (stream
/// framing sanity).
#[test]
fn sequential_decode_of_concatenated_messages() {
    check(CASES, |g| {
        let n = g.random_range(1..8usize);
        let oids: Vec<u64> = (0..n).map(|_| g.random::<u64>()).collect();
        let mut buf = Vec::new();
        for &oid in &oids {
            Message::PosQueryReq { oid: ObjectId(oid), corr: CorrId(oid ^ 0xFF) }.encode(&mut buf);
        }
        let mut slice = buf.as_slice();
        for &oid in &oids {
            let got = Message::decode(&mut slice).expect("valid message");
            assert_eq!(got, Message::PosQueryReq { oid: ObjectId(oid), corr: CorrId(oid ^ 0xFF) });
        }
        assert!(slice.is_empty());
    });
}

/// `envs` packed by one outbox into datagrams for one destination.
fn packed(envs: &[Envelope<Message>]) -> Vec<Vec<u8>> {
    let mut outbox = Outbox::new();
    let dst = "127.0.0.1:9".parse().expect("valid address");
    for env in envs {
        outbox.push(dst, env.clone(), |_, _| unreachable!("far below the cap")).unwrap();
    }
    let mut sent = Vec::new();
    outbox.flush(|_, bytes| {
        sent.push(bytes.to_vec());
        true
    });
    sent
}

/// Two or three sample messages packed into one datagram, then cut at
/// every offset and hit with every bit mask at every byte: decoding
/// never panics and is all or nothing — a cut delivers exactly the
/// frames before it when it falls on a frame boundary and nothing
/// otherwise, a mutation delivers some envelopes or none, and what the
/// caller's buffer held before is never disturbed.
#[test]
fn packed_datagrams_are_all_or_nothing_under_mutation() {
    let masks: Vec<u8> = (0..8).map(|bit| 1 << bit).chain([0xFF]).collect();
    let sentinel = Message::DeregisterReq { oid: ObjectId(0) };
    let sentinel = Envelope::new(ClientId(0).into(), ServerId(0).into(), sentinel);
    let samples = samples::sample_messages();
    for (i, window) in samples.windows(3).enumerate() {
        let envs: Vec<Envelope<Message>> = window[..2 + i % 2]
            .iter()
            .map(|msg| Envelope::new(ServerId(i as u32).into(), ClientId(9).into(), msg.clone()))
            .collect();
        // A packed datagram is the one-envelope datagrams back to back.
        let singles: Vec<Vec<u8>> =
            envs.iter().map(|e| packed(std::slice::from_ref(e)).concat()).collect();
        let datagram = packed(&envs);
        assert_eq!(datagram, [singles.concat()], "one datagram, no header");
        let datagram = &datagram[0];
        let ends: Vec<usize> = singles
            .iter()
            .scan(0, |end, frame| {
                *end += frame.len();
                Some(*end)
            })
            .collect();

        let mut out = vec![sentinel.clone()];
        for cut in 0..datagram.len() {
            let ok = decode_datagram(&datagram[..cut], &mut out);
            let whole = ends.iter().position(|&end| end == cut);
            assert_eq!(ok, whole.is_some(), "window {i}: cut at {cut} of {ends:?}");
            let delivered = whole.map_or(0, |k| k + 1);
            assert_eq!(&out[1..], &envs[..delivered], "window {i}: cut at {cut}");
            out.truncate(1);
        }
        for at in 0..datagram.len() {
            for mask in &masks {
                let mut flipped = datagram.clone();
                flipped[at] ^= mask;
                let ok = decode_datagram(&flipped, &mut out);
                assert_eq!(ok, out.len() > 1, "window {i}: flip {mask:#04x} at {at}");
                assert_eq!(out[0], sentinel);
                out.truncate(1);
            }
        }
    }
}
