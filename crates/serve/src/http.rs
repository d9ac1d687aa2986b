//! A minimal HTTP/1.1 layer for the daemon.
//!
//! Exactly what `ringlab serve` needs and nothing more: an incremental
//! request parser that works on the bytes a connection has delivered so
//! far (request line, headers, `Content-Length` body), and response
//! builders for JSON bodies and streamed JSONL. Every response carries
//! `Connection: close` — one request per connection keeps each
//! connection's thread trivial, and both `curl` and the in-repo tests
//! speak it natively. No
//! external dependency is involved; this module is the entire HTTP
//! surface.

use serde::Value;

/// A parsed HTTP request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// The request method, uppercased by the client (`GET`, `POST`, …).
    pub method: String,
    /// The request target path (query strings are kept verbatim).
    pub path: String,
    /// The request body (`Content-Length` bytes).
    pub body: Vec<u8>,
}

/// The largest request head (request line plus headers) the daemon
/// buffers; the worker hello line shares the cap. An absurdly long head is
/// an attack or a confused peer, not a slow request.
pub const MAX_HEAD_BYTES: usize = 64 * 1024;

/// The largest request body the daemon accepts. Run specs are well under
/// 1 KiB; a larger `Content-Length` is refused before any body is buffered.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// Tries to parse one complete request from the front of `buf`.
///
/// Returns `Ok(None)` while the buffer holds only a prefix of a request
/// (the caller keeps reading), or the parsed request plus the number of
/// bytes it consumed.
///
/// # Errors
///
/// Returns a description of a malformed request line or header block, a
/// head longer than [`MAX_HEAD_BYTES`], a `Content-Length` above
/// [`MAX_BODY_BYTES`], or `Content-Length` headers that disagree.
pub fn parse_request(buf: &[u8]) -> Result<Option<(Request, usize)>, String> {
    let head_end = find_blank_line(buf);
    if head_end.unwrap_or(buf.len()) > MAX_HEAD_BYTES {
        return Err(format!(
            "request header block exceeds {MAX_HEAD_BYTES} bytes"
        ));
    }
    let Some(head_end) = head_end else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| "request head is not UTF-8".to_string())?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or("empty request line")?
        .to_ascii_uppercase();
    let path = parts.next().ok_or("request line has no path")?.to_string();
    let version = parts.next().ok_or("request line has no version")?;
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported protocol `{version}`"));
    }
    let mut content_length = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                let length: usize = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad Content-Length `{}`", value.trim()))?;
                // RFC 9112 §6.3: differing lengths leave the body's end
                // ambiguous, so the message is refused.
                if content_length.is_some_and(|seen| seen != length) {
                    return Err("conflicting Content-Length headers".into());
                }
                content_length = Some(length);
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(format!(
            "Content-Length {content_length} exceeds the {MAX_BODY_BYTES}-byte body cap"
        ));
    }
    // Both terms are capped, so the sum cannot overflow.
    let body_end = head_end + 4 + content_length;
    let Some(body) = buf.get(head_end + 4..body_end) else {
        return Ok(None);
    };
    let request = Request {
        method,
        path,
        body: body.to_vec(),
    };
    Ok(Some((request, body_end)))
}

/// The position of the `\r\n\r\n` separating head from body.
fn find_blank_line(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Builds a complete response with a body.
pub fn response(status: u16, reason: &str, content_type: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Builds a JSON response (the daemon's default shape).
pub fn json_response(status: u16, reason: &str, value: &Value) -> Vec<u8> {
    let body = serde_json::to_string_pretty(value).expect("serializable value") + "\n";
    response(status, reason, "application/json", body.as_bytes())
}

/// Builds an error response with a JSON `{"error": …}` body.
pub fn error_response(status: u16, reason: &str, message: &str) -> Vec<u8> {
    let value = Value::Object(vec![("error".to_string(), Value::Str(message.to_string()))]);
    json_response(status, reason, &value)
}

/// The response head of a streamed JSONL body: no `Content-Length`, the
/// close of the connection delimits the stream.
pub fn stream_head() -> Vec<u8> {
    b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n".to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_parse_incrementally() {
        let wire = b"POST /v1/runs HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody";
        // Every proper prefix is "keep reading".
        for cut in 0..wire.len() {
            assert_eq!(parse_request(&wire[..cut]).unwrap(), None, "cut {cut}");
        }
        let (request, consumed) = parse_request(wire).unwrap().unwrap();
        assert_eq!(consumed, wire.len());
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/v1/runs");
        assert_eq!(request.body, b"body");
    }

    #[test]
    fn bodyless_requests_and_trailing_bytes() {
        let wire = b"GET /v1/healthz HTTP/1.1\r\n\r\nGET /extra";
        let (request, consumed) = parse_request(wire).unwrap().unwrap();
        assert_eq!(request.method, "GET");
        assert_eq!(request.path, "/v1/healthz");
        assert!(request.body.is_empty());
        assert_eq!(&wire[consumed..], b"GET /extra");
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(parse_request(b"NOT-HTTP\r\n\r\n").is_err());
        assert!(parse_request(b"GET /x SPDY/3\r\n\r\n").is_err());
        assert!(parse_request(b"GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n").is_err());
        assert!(parse_request(
            b"POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 0\r\n\r\nbody"
        )
        .is_err());
        assert!(parse_request(&vec![b'A'; MAX_HEAD_BYTES + 1]).is_err());
    }

    #[test]
    fn responses_carry_length_and_close() {
        let wire = response(200, "OK", "text/plain", b"hi");
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nhi"));
    }
}
