//! Workspace-level integration tests for the MAGIC reproduction.
//!
//! The real content lives in `tests/tests/*.rs`; this library only hosts
//! shared helpers for those tests and the reference [`oracle`] kernels
//! the production kernels are checked against.

pub mod oracle;

use magic_graph::{Acfg, DiGraph, NUM_ATTRIBUTES};
use magic_tensor::{Rng64, Tensor};

/// Builds a random, connected, CFG-shaped ACFG for tests.
pub fn random_acfg(n: usize, seed: u64) -> Acfg {
    assert!(n >= 2, "need at least two vertices");
    let mut rng = Rng64::new(seed);
    let mut g = DiGraph::new(n);
    for v in 0..n - 1 {
        g.add_edge(v, v + 1);
    }
    for _ in 0..n / 3 {
        let (u, v) = (rng.next_below(n), rng.next_below(n));
        if u != v {
            g.add_edge(u, v);
        }
    }
    let attrs = Tensor::rand_uniform([n, NUM_ATTRIBUTES], 0.0, 5.0, &mut rng);
    Acfg::new(g, attrs)
}

/// Applies a vertex permutation to an ACFG: vertex `perm[v]` of the input
/// becomes vertex `v` of the result.
pub fn permute_acfg(acfg: &Acfg, perm: &[usize]) -> Acfg {
    let n = acfg.vertex_count();
    assert_eq!(perm.len(), n, "permutation must cover all vertices");
    // inverse[old] = new position.
    let mut inverse = vec![0usize; n];
    for (new, &old) in perm.iter().enumerate() {
        inverse[old] = new;
    }
    let mut g = DiGraph::new(n);
    for (u, v) in acfg.graph().edges() {
        g.add_edge(inverse[u], inverse[v]);
    }
    let mut attrs = Tensor::zeros([n, NUM_ATTRIBUTES]);
    for (new, &old) in perm.iter().enumerate() {
        attrs.set_row(new, acfg.attributes().row(old));
    }
    Acfg::new(g, attrs)
}

/// Generates a parseable IDA-style listing whose CFG has roughly
/// `blocks + 1` basic blocks — variable-size inputs for the `magic
/// serve` integration tests.
pub fn synthetic_listing(blocks: usize) -> String {
    let mut out = String::new();
    let mut addr = 0x401000u64;
    for b in 0..blocks {
        let target = addr + 0x10;
        out.push_str(&format!(".text:{addr:08X} loc_{addr:X}:\n"));
        out.push_str(&format!(".text:{addr:08X}    cmp     eax, {b}\n"));
        out.push_str(&format!(".text:{:08X}    jz      short loc_{target:X}\n", addr + 3));
        out.push_str(&format!(".text:{:08X}    add     eax, 1\n", addr + 5));
        addr = target;
    }
    out.push_str(&format!(".text:{addr:08X} loc_{addr:X}:\n"));
    out.push_str(&format!(".text:{addr:08X}    retn\n"));
    out
}

/// A blocking one-request HTTP client for exercising `magic serve` from
/// tests and the load-generator bench (one connection per request, as
/// the server's `Connection: close` protocol expects).
pub mod serve_client {
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};

    /// A parsed response: status code, lowercased header pairs, body.
    pub struct HttpResponse {
        /// HTTP status code.
        pub status: u16,
        /// Header `(name, value)` pairs, names lowercased.
        pub headers: Vec<(String, String)>,
        /// Response body.
        pub body: String,
    }

    impl HttpResponse {
        /// Case-insensitive header lookup.
        pub fn header(&self, name: &str) -> Option<&str> {
            let name = name.to_ascii_lowercase();
            self.headers.iter().find(|(k, _)| *k == name).map(|(_, v)| v.as_str())
        }
    }

    /// Sends one request and reads the complete response.
    ///
    /// # Panics
    ///
    /// Panics on connect/IO failures or an unparseable response — in a
    /// test, any of those is a failed assertion anyway.
    pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> HttpResponse {
        let mut stream = TcpStream::connect(addr).expect("connect to test server");
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("send request");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read response");
        let (head, body) = raw.split_once("\r\n\r\n").expect("response has a header block");
        let mut lines = head.lines();
        let status = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let headers = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
            .collect();
        HttpResponse { status, headers, body: body.to_string() }
    }

    /// POSTs a body to `/v1/predict`.
    pub fn predict(addr: SocketAddr, body: &str) -> HttpResponse {
        request(addr, "POST", "/v1/predict", body)
    }

    /// Sends one request with a raw byte body and an explicit
    /// `Content-Type` (e.g. the binary `application/x-magic-acfg`
    /// records the shard cache stores).
    ///
    /// # Panics
    ///
    /// Panics on connect/IO failures or an unparseable response, like
    /// [`request`].
    pub fn request_bytes(
        addr: SocketAddr,
        method: &str,
        path: &str,
        content_type: &str,
        body: &[u8],
    ) -> HttpResponse {
        let mut stream = TcpStream::connect(addr).expect("connect to test server");
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-type: {content_type}\r\n\
             content-length: {}\r\n\r\n",
            body.len()
        )
        .expect("send request head");
        stream.write_all(body).expect("send request body");
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).expect("read response");
        let raw = String::from_utf8(raw).expect("UTF-8 response");
        let (head, body) = raw.split_once("\r\n\r\n").expect("response has a header block");
        let mut lines = head.lines();
        let status = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let headers = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
            .collect();
        HttpResponse { status, headers, body: body.to_string() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_listing_extracts_to_requested_size() {
        let small = magic::extract_acfg(&synthetic_listing(2)).unwrap();
        let large = magic::extract_acfg(&synthetic_listing(12)).unwrap();
        assert!(large.vertex_count() > small.vertex_count());
        assert!(small.vertex_count() >= 3);
    }

    #[test]
    fn permute_identity_is_noop() {
        let acfg = random_acfg(6, 1);
        let perm: Vec<usize> = (0..6).collect();
        let p = permute_acfg(&acfg, &perm);
        assert_eq!(p.edge_count(), acfg.edge_count());
        assert!(p.attributes().approx_eq(acfg.attributes(), 0.0));
    }

    #[test]
    fn permutation_preserves_degree_multiset() {
        let acfg = random_acfg(8, 2);
        let perm = vec![3, 1, 4, 0, 6, 2, 7, 5];
        let p = permute_acfg(&acfg, &perm);
        let mut a: Vec<usize> = (0..8).map(|v| acfg.graph().out_degree(v)).collect();
        let mut b: Vec<usize> = (0..8).map(|v| p.graph().out_degree(v)).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}
