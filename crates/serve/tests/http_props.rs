//! Property tests of the daemon's HTTP request parser: no input — a
//! truncated request, a corrupted one, or a hostile `Content-Length` — may
//! panic it, because the daemon parses on its accept thread.

use proptest::prelude::*;
use ring_serve::http::{parse_request, MAX_BODY_BYTES};

const METHODS: [&str; 3] = ["GET", "POST", "DELETE"];

/// A well-formed request with a `len`-byte body derived from `seed`.
fn valid_request(method: usize, len: usize, seed: u64) -> Vec<u8> {
    let body: Vec<u8> = (0..len)
        .map(|i| (seed.rotate_left(i as u32 % 64) >> 3) as u8)
        .collect();
    let mut wire = format!(
        "{} /v1/runs/{seed} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {len}\r\n\r\n",
        METHODS[method]
    )
    .into_bytes();
    wire.extend_from_slice(&body);
    wire
}

/// The `Content-Length` values at and around the body cap, the largest
/// `usize`, and a number no `usize` can hold.
fn content_lengths() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("0".to_string()),
        Just(MAX_BODY_BYTES.to_string()),
        Just((MAX_BODY_BYTES + 1).to_string()),
        Just(usize::MAX.to_string()),
        Just("1234567890123456789012345".to_string()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every proper prefix of a valid request is "keep reading"; the whole
    /// request parses and consumes exactly its own bytes.
    #[test]
    fn truncated_requests_wait_for_more(
        (method, len, seed) in (0usize..3, 0usize..200, any::<u64>()),
    ) {
        let wire = valid_request(method, len, seed);
        for cut in 0..wire.len() {
            prop_assert_eq!(parse_request(&wire[..cut]), Ok(None), "cut {}", cut);
        }
        let (request, consumed) = parse_request(&wire).unwrap().unwrap();
        prop_assert_eq!(consumed, wire.len());
        prop_assert_eq!(request.method, METHODS[method]);
        prop_assert_eq!(request.body.len(), len);
    }

    /// Random byte flips never panic the parser, and whatever it accepts
    /// lies inside the buffer.
    #[test]
    fn corrupted_requests_never_panic(
        (method, len, seed, flips) in (0usize..3, 0usize..64, any::<u64>(), 1usize..8),
    ) {
        let mut wire = valid_request(method, len, seed);
        let mut state = seed;
        for _ in 0..flips {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let at = (state >> 33) as usize % wire.len();
            wire[at] ^= (state >> 8) as u8 | 1;
        }
        if let Ok(Some((request, consumed))) = parse_request(&wire) {
            prop_assert!(consumed <= wire.len());
            prop_assert!(request.body.len() <= MAX_BODY_BYTES);
        }
    }

    /// Hostile `Content-Length` values are refused up front; lengths within
    /// the cap wait for their body.
    #[test]
    fn hostile_content_lengths_are_refused(
        (length, supplied) in (content_lengths(), 0usize..64),
    ) {
        let mut wire =
            format!("POST /v1/runs HTTP/1.1\r\nContent-Length: {length}\r\n\r\n").into_bytes();
        wire.extend(std::iter::repeat_n(b'x', supplied));
        let parsed = parse_request(&wire);
        match length.parse::<usize>() {
            Ok(0) => prop_assert!(matches!(parsed, Ok(Some((ref r, _))) if r.body.is_empty())),
            Ok(n) if n <= MAX_BODY_BYTES => prop_assert_eq!(parsed, Ok(None)),
            _ => prop_assert!(parsed.is_err(), "{length} accepted: {parsed:?}"),
        }
    }
}

/// A body of exactly the cap is accepted once it has fully arrived.
#[test]
fn a_body_at_the_cap_is_accepted() {
    let mut wire =
        format!("POST /v1/runs HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\n").into_bytes();
    let head = wire.len();
    wire.resize(head + MAX_BODY_BYTES, b'x');
    let (request, consumed) = parse_request(&wire).unwrap().unwrap();
    assert_eq!(request.body.len(), MAX_BODY_BYTES);
    assert_eq!(consumed, wire.len());
}
