//! The `magic serve` wire protocol: request decoding and response
//! encoding for the JSON-over-HTTP prediction API.
//!
//! A predict request body is either a raw IDA-style `.asm` listing
//! (plain text) or a JSON object holding one of:
//!
//! * `{"asm": "<listing text>"}` — the same listing, JSON-wrapped;
//! * `{"acfg": {...}}` — a pre-extracted attributed CFG, skipping the
//!   parse/CFG-build stages (the fast path for callers that run
//!   extraction themselves, e.g. from the binary ACFG cache).
//!
//! Alternatively, a request sent with `Content-Type:
//! application/x-magic-acfg` ([`ACFG_CONTENT_TYPE`]) carries one binary
//! `magic-acfg/1` record exactly as stored in a cache shard (see
//! [`magic_data::encode_record`]) — the compact zero-JSON fast path;
//! the record's label field is ignored.
//!
//! The ACFG object is `{"vertices": n, "edges": [[u, v], ...],
//! "attributes": [[f; 11], ...]}` with one 11-channel Table I attribute
//! row per vertex, in *raw count* scale (the server applies the same
//! `ln(1 + x)` scaling training used). A successful response is
//! `{"family", "probability", "scores", "batch_size", "queue_us",
//! "request_id"}`; errors are `{"error": "..."}`. Full schema and
//! status-code semantics are documented in `docs/SERVING.md`.

use magic_graph::{Acfg, DiGraph, NUM_ATTRIBUTES};
use magic_json::{json, Value};
use magic_tensor::Tensor;

/// `Content-Type` selecting the binary `magic-acfg/1` record body.
pub const ACFG_CONTENT_TYPE: &str = "application/x-magic-acfg";

/// A decoded prediction input.
#[derive(Debug, Clone)]
pub enum RequestInput {
    /// A raw `.asm` listing still needing parse → CFG → ACFG extraction.
    Listing(String),
    /// A pre-extracted attributed CFG.
    Acfg(Acfg),
}

/// Decodes a predict request given its `Content-Type` header.
///
/// [`ACFG_CONTENT_TYPE`] bodies are decoded as one binary shard record
/// via [`magic_data::decode_record`] (the label field is ignored);
/// every other (or missing) content type falls through to
/// [`parse_predict_body`]. Media-type parameters (`; charset=...`) and
/// ASCII case are ignored when matching.
///
/// # Examples
///
/// ```
/// use magic_data::{encode_record, ShardRecord};
/// use magic_graph::{Acfg, DiGraph, NUM_ATTRIBUTES};
/// use magic_serve::protocol::{parse_predict_request, RequestInput, ACFG_CONTENT_TYPE};
/// use magic_tensor::Tensor;
///
/// let mut g = DiGraph::new(2);
/// g.add_edge(0, 1);
/// let record = ShardRecord { label: 0, acfg: Acfg::new(g, Tensor::ones([2, NUM_ATTRIBUTES])) };
/// let body = encode_record(&record);
/// let input = parse_predict_request(Some(ACFG_CONTENT_TYPE), &body)?;
/// assert!(matches!(input, RequestInput::Acfg(_)));
///
/// let text = parse_predict_request(None, b".text:00401000    retn\n")?;
/// assert!(matches!(text, RequestInput::Listing(_)));
/// # Ok::<(), String>(())
/// ```
pub fn parse_predict_request(
    content_type: Option<&str>,
    body: &[u8],
) -> Result<RequestInput, String> {
    let media_type = content_type
        .map(|ct| ct.split(';').next().unwrap_or("").trim().to_ascii_lowercase());
    if media_type.as_deref() == Some(ACFG_CONTENT_TYPE) {
        let record = magic_data::decode_record(body)
            .map_err(|e| format!("bad {ACFG_CONTENT_TYPE} body: {e}"))?;
        return Ok(RequestInput::Acfg(record.acfg));
    }
    parse_predict_body(body)
}

/// Decodes a predict request body.
///
/// Bodies whose first non-whitespace byte is `{` are parsed as the JSON
/// envelope; anything else is treated as a raw listing. An empty body,
/// invalid UTF-8, malformed JSON, or a JSON object with neither `asm`
/// nor a valid `acfg` is an error (the server maps it to HTTP 400).
///
/// # Examples
///
/// ```
/// use magic_serve::protocol::{parse_predict_body, RequestInput};
///
/// let raw = parse_predict_body(b".text:00401000    retn\n")?;
/// assert!(matches!(raw, RequestInput::Listing(_)));
///
/// let wrapped = parse_predict_body(br#"{"asm": ".text:00401000    retn"}"#)?;
/// assert!(matches!(wrapped, RequestInput::Listing(_)));
///
/// assert!(parse_predict_body(b"").is_err());
/// assert!(parse_predict_body(b"{\"neither\": 1}").is_err());
/// # Ok::<(), String>(())
/// ```
pub fn parse_predict_body(body: &[u8]) -> Result<RequestInput, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not valid UTF-8".to_string())?;
    let trimmed = text.trim_start();
    if trimmed.is_empty() {
        return Err("empty request body".into());
    }
    if !trimmed.starts_with('{') {
        return Ok(RequestInput::Listing(text.to_string()));
    }
    let value: Value = magic_json::from_str(trimmed).map_err(|e| format!("bad JSON body: {e}"))?;
    if let Some(listing) = value.get("asm") {
        let listing = listing.as_str().ok_or("\"asm\" must be a string")?;
        return Ok(RequestInput::Listing(listing.to_string()));
    }
    if let Some(acfg) = value.get("acfg") {
        return Ok(RequestInput::Acfg(acfg_from_json(acfg)?));
    }
    Err("JSON body must have an \"asm\" or \"acfg\" field".into())
}

/// Serializes an ACFG into the wire-format JSON object.
///
/// # Examples
///
/// Round-trips through [`acfg_from_json`]:
///
/// ```
/// use magic_graph::{Acfg, DiGraph, NUM_ATTRIBUTES};
/// use magic_serve::protocol::{acfg_from_json, acfg_to_json};
/// use magic_tensor::Tensor;
///
/// let mut g = DiGraph::new(2);
/// g.add_edge(0, 1);
/// let acfg = Acfg::new(g, Tensor::ones([2, NUM_ATTRIBUTES]));
/// let back = acfg_from_json(&acfg_to_json(&acfg))?;
/// assert_eq!(back.vertex_count(), 2);
/// assert_eq!(back.edge_count(), 1);
/// assert_eq!(back.attributes(), acfg.attributes());
/// # Ok::<(), String>(())
/// ```
pub fn acfg_to_json(acfg: &Acfg) -> Value {
    let edges: Vec<Value> =
        acfg.graph().edges().map(|(u, v)| json!([u as u64, v as u64])).collect();
    let attributes: Vec<Value> = (0..acfg.vertex_count())
        .map(|i| Value::Array(acfg.attributes().row(i).iter().map(|&x| json!(x as f64)).collect()))
        .collect();
    json!({
        "vertices": acfg.vertex_count() as u64,
        "edges": edges,
        "attributes": attributes,
    })
}

/// Parses the wire-format ACFG object back into an [`Acfg`].
///
/// Validates vertex indices, the attribute row count, and the
/// 11-channel row width, so a malformed graph is rejected here instead
/// of panicking inside the model. The vertex count is checked against
/// the attribute rows actually present before anything is sized by it,
/// so a huge claimed count costs a 400, not an allocation.
pub fn acfg_from_json(value: &Value) -> Result<Acfg, String> {
    let vertices = value
        .get("vertices")
        .and_then(Value::as_u64)
        .ok_or("acfg requires a numeric \"vertices\" field")? as usize;
    if vertices == 0 {
        return Err("acfg must have at least one vertex".into());
    }
    let edges = value
        .get("edges")
        .and_then(Value::as_array)
        .ok_or("acfg requires an \"edges\" array")?;
    let rows = value
        .get("attributes")
        .and_then(Value::as_array)
        .ok_or("acfg requires an \"attributes\" array")?;
    if rows.len() != vertices {
        return Err(format!("expected {vertices} attribute rows, got {}", rows.len()));
    }
    let mut graph = DiGraph::new(vertices);
    for (i, edge) in edges.iter().enumerate() {
        let pair = edge.as_array().filter(|p| p.len() == 2).ok_or_else(|| {
            format!("edge {i} must be a [from, to] pair")
        })?;
        let u = pair[0].as_u64().ok_or_else(|| format!("edge {i}: bad source"))? as usize;
        let v = pair[1].as_u64().ok_or_else(|| format!("edge {i}: bad target"))? as usize;
        if u >= vertices || v >= vertices {
            return Err(format!("edge {i} ({u} -> {v}) exceeds vertex count {vertices}"));
        }
        graph.add_edge(u, v);
    }
    let mut attributes = Tensor::zeros([vertices, NUM_ATTRIBUTES]);
    for (i, row) in rows.iter().enumerate() {
        let row = row.as_array().filter(|r| r.len() == NUM_ATTRIBUTES).ok_or_else(|| {
            format!("attribute row {i} must hold {NUM_ATTRIBUTES} numbers")
        })?;
        for (j, cell) in row.iter().enumerate() {
            let x = cell.as_f64().ok_or_else(|| format!("attribute [{i}][{j}] is not a number"))?;
            attributes.set2(i, j, x as f32);
        }
    }
    Ok(Acfg::new(graph, attributes))
}

/// Encodes a successful prediction.
///
/// `scores` are the per-family probabilities in family order — they are
/// written with shortest-roundtrip float formatting, so a client parsing
/// them back recovers the model's `f32` outputs bit-for-bit.
/// `batch_size` reports how many requests were fused into the batch
/// that served this one; `queue_us` is the time the request spent
/// queued + batched + executed, server-side. `request_id` is the
/// server-assigned id echoed back so a client can correlate its
/// response with the access log and `GET /debug/slow`.
///
/// # Examples
///
/// ```
/// use magic_serve::protocol::encode_prediction;
///
/// let families = ["Ramnit".to_string(), "Vundo".to_string()];
/// let body = encode_prediction(&families, &[0.25f32, 0.75], 4, 1930, 7);
/// let v = magic_json::from_str(&body).unwrap();
/// assert_eq!(v["family"], "Vundo");
/// assert_eq!(v["scores"]["Ramnit"].as_f64(), Some(0.25));
/// assert_eq!(v["batch_size"].as_u64(), Some(4));
/// assert_eq!(v["request_id"].as_u64(), Some(7));
/// ```
pub fn encode_prediction(
    families: &[String],
    probs: &[f32],
    batch_size: usize,
    queue_us: u64,
    request_id: u64,
) -> String {
    assert_eq!(families.len(), probs.len(), "one probability per family");
    let best = magic_tensor::argmax(probs).expect("non-empty probability vector");
    let mut scores = magic_json::Map::new();
    for (name, &prob) in families.iter().zip(probs) {
        scores.insert(name.clone(), json!(prob as f64));
    }
    let body = json!({
        "family": families[best].clone(),
        "probability": probs[best] as f64,
        "scores": Value::Object(scores),
        "batch_size": batch_size as u64,
        "queue_us": queue_us,
        "request_id": request_id,
    });
    magic_json::to_string(&body)
}

/// Encodes an error body: `{"error": "<message>"}`.
///
/// # Examples
///
/// ```
/// assert_eq!(
///     magic_serve::protocol::encode_error("queue full"),
///     r#"{"error":"queue full"}"#
/// );
/// ```
pub fn encode_error(message: &str) -> String {
    magic_json::to_string(&json!({ "error": message }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_acfg() -> Acfg {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(2, 0);
        let mut attrs = Tensor::zeros([3, NUM_ATTRIBUTES]);
        attrs.set2(0, 0, 4.0);
        attrs.set2(1, 8, 2.5);
        attrs.set2(2, 10, 1.0);
        Acfg::new(g, attrs)
    }

    #[test]
    fn acfg_json_roundtrip_is_exact() {
        let acfg = sample_acfg();
        let back = acfg_from_json(&acfg_to_json(&acfg)).unwrap();
        assert_eq!(back.vertex_count(), acfg.vertex_count());
        assert_eq!(back.edge_count(), acfg.edge_count());
        assert_eq!(back.attributes(), acfg.attributes());
        let edges: Vec<_> = acfg.graph().edges().collect();
        let back_edges: Vec<_> = back.graph().edges().collect();
        assert_eq!(edges, back_edges);
    }

    #[test]
    fn acfg_json_rejects_malformed_graphs() {
        let row = || vec![0.0f64; NUM_ATTRIBUTES];
        // Edge out of range.
        let v = json!({"vertices": 2, "edges": [[0, 5]], "attributes": [row(), row()]});
        assert!(acfg_from_json(&v).unwrap_err().contains("exceeds vertex count"));
        // Wrong attribute row count.
        let v = json!({"vertices": 2, "edges": [], "attributes": [row()]});
        assert!(acfg_from_json(&v).unwrap_err().contains("attribute rows"));
        // Wrong row width.
        let v = json!({"vertices": 1, "edges": [], "attributes": [[0.0, 1.0]]});
        assert!(acfg_from_json(&v).unwrap_err().contains("11 numbers"));
        // Zero vertices.
        let v = json!({"vertices": 0, "edges": [], "attributes": []});
        assert!(acfg_from_json(&v).unwrap_err().contains("at least one vertex"));
        // Missing fields.
        assert!(acfg_from_json(&json!({"vertices": 1})).is_err());
    }

    #[test]
    fn a_huge_vertex_count_is_rejected_before_allocating() {
        // 10^15 vertices would be a petabyte-scale adjacency allocation
        // (an abort, not a panic) if anything were sized by it first.
        let v = json!({"vertices": 1e15, "edges": [], "attributes": []});
        assert!(acfg_from_json(&v).unwrap_err().contains("attribute rows"));
        let v = json!({"vertices": (u64::MAX as f64), "edges": [[0, 1]], "attributes": []});
        assert!(acfg_from_json(&v).unwrap_err().contains("attribute rows"));
        // A missing edges array is still reported, also before sizing.
        let v = json!({"vertices": 1e15, "attributes": []});
        assert!(acfg_from_json(&v).unwrap_err().contains("edges"));
    }

    #[test]
    fn body_dispatch_covers_all_three_forms() {
        assert!(matches!(
            parse_predict_body(b".text:00401000  retn\n").unwrap(),
            RequestInput::Listing(_)
        ));
        assert!(matches!(
            parse_predict_body(br#"  {"asm": "mov eax, 1"}"#).unwrap(),
            RequestInput::Listing(_)
        ));
        let body = magic_json::to_string(&json!({ "acfg": acfg_to_json(&sample_acfg()) }));
        match parse_predict_body(body.as_bytes()).unwrap() {
            RequestInput::Acfg(acfg) => assert_eq!(acfg.vertex_count(), 3),
            other => panic!("expected Acfg, got {other:?}"),
        }
    }

    #[test]
    fn binary_content_type_decodes_a_shard_record() {
        let acfg = sample_acfg();
        let body = magic_data::encode_record(&magic_data::ShardRecord { label: 5, acfg: acfg.clone() });
        // Exact, parameterized, and mixed-case content types all match.
        for ct in [
            ACFG_CONTENT_TYPE.to_string(),
            format!("{ACFG_CONTENT_TYPE}; charset=binary"),
            ACFG_CONTENT_TYPE.to_ascii_uppercase(),
        ] {
            match parse_predict_request(Some(&ct), &body).unwrap() {
                RequestInput::Acfg(got) => {
                    assert_eq!(got.vertex_count(), acfg.vertex_count());
                    assert_eq!(got.attributes(), acfg.attributes());
                }
                other => panic!("expected Acfg, got {other:?}"),
            }
        }
        // Other content types fall through to the text parser.
        assert!(matches!(
            parse_predict_request(Some("text/plain"), b".text:00401000  retn\n").unwrap(),
            RequestInput::Listing(_)
        ));
        // Damaged binary bodies are typed errors, not panics.
        let err = parse_predict_request(Some(ACFG_CONTENT_TYPE), &body[..body.len() / 2])
            .unwrap_err();
        assert!(err.contains(ACFG_CONTENT_TYPE), "{err}");
        assert!(parse_predict_request(Some(ACFG_CONTENT_TYPE), b"").is_err());
    }

    #[test]
    fn body_errors_are_descriptive() {
        assert!(parse_predict_body(b"   ").unwrap_err().contains("empty"));
        assert!(parse_predict_body(b"{not json").unwrap_err().contains("bad JSON"));
        assert!(parse_predict_body(b"{\"x\": 1}").unwrap_err().contains("asm"));
        assert!(parse_predict_body(&[0xff, 0xfe, b'{']).unwrap_err().contains("UTF-8"));
        assert!(parse_predict_body(b"{\"asm\": 3}").unwrap_err().contains("string"));
    }

    #[test]
    fn prediction_scores_roundtrip_bitwise_through_json() {
        let families: Vec<String> = ["A", "B", "C"].iter().map(|s| s.to_string()).collect();
        let probs = [0.123_456_79_f32, 0.5, 0.376_543_2];
        let body = encode_prediction(&families, &probs, 3, 42, 9);
        let v = magic_json::from_str(&body).unwrap();
        assert_eq!(v["family"], "B");
        for (name, &p) in families.iter().zip(&probs) {
            let back = v["scores"][name.as_str()].as_f64().unwrap() as f32;
            assert_eq!(back.to_bits(), p.to_bits(), "{name} did not roundtrip");
        }
        assert_eq!(v["queue_us"].as_u64(), Some(42));
        assert_eq!(v["request_id"].as_u64(), Some(9));
    }
}
