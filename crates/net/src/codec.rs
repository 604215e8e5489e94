//! JSON codec for update instances: one typed writer and one typed
//! reader over the `serde_json` shim's grammar.
//!
//! The workspace has no serde derives, so the wire and journal form of
//! an [`UpdateInstance`] is written by hand here:
//!
//! ```text
//! {"flows":[{"demand":D,"final":[hops],"id":I,"initial":[hops]},…],
//!  "network":{"links":[[src,dst,capacity,delay],…],"switches":[names…]}}
//! ```
//!
//! (keys sorted, no whitespace). [`write_instance`] writes it straight
//! from the model; [`read_instance`] reads it with the shim's pull
//! [`Reader`] straight into [`NetworkBuilder`], [`Flow::new`] and
//! [`UpdateInstance::new`], so a hand-edited or corrupted document can
//! never materialize an instance the constructors would reject. Members
//! may come in any order, unknown members are skipped, and the reader
//! rejects what the shim's [`serde_json::from_str`] rejects (repeated
//! keys, nesting past its cap, trailing bytes).
//!
//! Capacities, delays and demands are `u64`; values above 2⁵³ are
//! written as decimal strings ([`serde_json::push_u64_exact`]) to
//! survive the shim's `f64` number model exactly.
//!
//! [`instance_to_value`] and [`instance_from_value`] are adapters over
//! the typed pair for callers that hold a [`Value`].

use crate::{Flow, FlowId, Network, NetworkBuilder, Path, SwitchId, UpdateInstance};
use serde_json::{Reader, Token, Value};
use std::fmt;

/// A structural error while decoding a JSON document into a model
/// type: a missing field, a type mismatch, or a document that fails
/// the model's own validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError(String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// Writes `instance` in the codec's form, byte for byte what
/// `serde_json::to_string(&instance_to_value(instance))` gives.
pub fn write_instance(instance: &UpdateInstance, out: &mut String) {
    let hops = |path: &Path, out: &mut String| {
        out.push('[');
        for (i, hop) in path.hops().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            serde_json::push_integer(i64::from(hop.0), out);
        }
        out.push(']');
    };
    out.push_str("{\"flows\":[");
    for (i, flow) in instance.flows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"demand\":");
        serde_json::push_u64_exact(flow.demand, out);
        out.push_str(",\"final\":");
        hops(&flow.fin, out);
        out.push_str(",\"id\":");
        serde_json::push_integer(i64::from(flow.id.0), out);
        out.push_str(",\"initial\":");
        hops(&flow.initial, out);
        out.push('}');
    }
    let net = &instance.network;
    out.push_str("],\"network\":{\"links\":[");
    for (i, l) in net.links().enumerate() {
        out.push_str(if i > 0 { ",[" } else { "[" });
        serde_json::push_integer(i64::from(l.src.0), out);
        out.push(',');
        serde_json::push_integer(i64::from(l.dst.0), out);
        out.push(',');
        serde_json::push_u64_exact(l.capacity, out);
        out.push(',');
        serde_json::push_u64_exact(l.delay, out);
        out.push(']');
    }
    out.push_str("],\"switches\":[");
    for s in net.switches() {
        if s.0 > 0 {
            out.push(',');
        }
        serde_json::escape(net.switch_name(s).unwrap_or_default(), out);
    }
    out.push_str("]}}");
}

/// Why a typed read stopped: the text is not JSON, or it is JSON that
/// is not an instance.
enum Stop {
    Json(serde_json::Error),
    Schema(CodecError),
}

impl From<serde_json::Error> for Stop {
    fn from(e: serde_json::Error) -> Self {
        Stop::Json(e)
    }
}

type Read<T> = Result<T, Stop>;

fn schema<T>(msg: impl Into<String>) -> Read<T> {
    Err(Stop::Schema(CodecError(msg.into())))
}

/// `value`, or a schema error saying `msg()` when there is none.
fn or_schema<T>(value: Option<T>, msg: impl FnOnce() -> String) -> Read<T> {
    value.map_or_else(|| schema(msg()), Ok)
}

fn present<T>(field: Option<T>, key: &str) -> Read<T> {
    or_schema(field, || format!("missing field `{key}`"))
}

/// Enters the object the next value must be.
fn object(r: &mut Reader<'_>, what: &str) -> Read<()> {
    match r.token()? {
        Token::Object => Ok(()),
        _ => schema(format!("{what} is not an object")),
    }
}

/// Enters the array the next value must be.
fn array(r: &mut Reader<'_>, what: &str) -> Read<()> {
    match r.token()? {
        Token::Array => Ok(()),
        _ => schema(format!("{what} is not an array")),
    }
}

/// The next value as a `u64` (an integral number or a decimal string),
/// or `None` when it is neither.
fn u64_exact(r: &mut Reader<'_>) -> Read<Option<u64>> {
    let token = r.token()?;
    r.skip(&token)?;
    Ok(token.as_u64_exact())
}

/// A `u32` id component.
fn id_u32(raw: Option<u64>, what: &str) -> Read<u32> {
    let raw = or_schema(raw, || format!("{what} is not an integer"))?;
    u32::try_from(raw).or_else(|_| schema(format!("{what} {raw} exceeds u32")))
}

fn path(r: &mut Reader<'_>, what: &str) -> Read<Path> {
    array(r, what)?;
    let mut hops = Vec::new();
    while r.next_element()? {
        hops.push(SwitchId(id_u32(u64_exact(r)?, "path hop")?));
    }
    Ok(Path::new(hops))
}

fn flow(r: &mut Reader<'_>) -> Read<Flow> {
    object(r, "flow")?;
    let (mut id, mut demand, mut initial, mut fin) = (None, None, None, None);
    while let Some(key) = r.next_key()? {
        match key.as_ref() {
            "id" => id = Some(u64_exact(r)?),
            "demand" => demand = Some(u64_exact(r)?),
            "initial" => initial = Some(path(r, "`initial`")?),
            "final" => fin = Some(path(r, "`final`")?),
            _ => r.skip_value()?,
        }
    }
    let id = FlowId(id_u32(present(id, "id")?, "flow id")?);
    let demand = or_schema(present(demand, "demand")?, || {
        "field `demand` is not a u64".into()
    })?;
    let (initial, fin) = (present(initial, "initial")?, present(fin, "final")?);
    Flow::new(id, demand, initial, fin).or_else(|e| schema(format!("invalid flow: {e}")))
}

/// One `[src, dst, capacity, delay]` quad.
fn link(r: &mut Reader<'_>) -> Read<(SwitchId, SwitchId, u64, u64)> {
    array(r, "link")?;
    let mut quad = [None; 4];
    let mut len = 0;
    while r.next_element()? {
        let word = u64_exact(r)?;
        if let Some(slot) = quad.get_mut(len) {
            *slot = word;
        }
        len += 1;
    }
    let [src, dst, capacity, delay] = quad;
    if len != 4 {
        return schema("link is not a [src, dst, capacity, delay] quad");
    }
    Ok((
        SwitchId(id_u32(src, "link src")?),
        SwitchId(id_u32(dst, "link dst")?),
        or_schema(capacity, || "link capacity is not a u64".into())?,
        or_schema(delay, || "link delay is not a u64".into())?,
    ))
}

/// The network, re-running [`NetworkBuilder`] validation (no
/// self-loops, positive delays…). The builder is sized from the
/// counts before the first link goes in, whatever order the members
/// came in.
fn network(r: &mut Reader<'_>) -> Read<Network> {
    object(r, "`network`")?;
    let (mut names, mut links) = (None, None);
    while let Some(key) = r.next_key()? {
        match key.as_ref() {
            "switches" => {
                array(r, "`switches`")?;
                let mut all = Vec::new();
                while r.next_element()? {
                    match r.token()? {
                        Token::String(name) => all.push(name.into_owned()),
                        _ => return schema("switch name is not a string"),
                    }
                }
                names = Some(all);
            }
            "links" => {
                array(r, "`links`")?;
                let mut all = Vec::new();
                while r.next_element()? {
                    all.push(link(r)?);
                }
                links = Some(all);
            }
            _ => r.skip_value()?,
        }
    }
    let names = present(names, "switches")?;
    let links = present(links, "links")?;
    let mut b = NetworkBuilder::with_capacity(names.len(), links.len());
    for name in names {
        b.add_switch(name);
    }
    for (src, dst, capacity, delay) in links {
        if let Err(e) = b.add_link(src, dst, capacity, delay) {
            return schema(format!("invalid link: {e}"));
        }
    }
    Ok(b.build())
}

fn instance(r: &mut Reader<'_>) -> Read<UpdateInstance> {
    object(r, "instance")?;
    let (mut net, mut flows) = (None, None);
    while let Some(key) = r.next_key()? {
        match key.as_ref() {
            "network" => net = Some(network(r)?),
            "flows" => {
                array(r, "`flows`")?;
                let mut all = Vec::new();
                while r.next_element()? {
                    all.push(flow(r)?);
                }
                flows = Some(all);
            }
            _ => r.skip_value()?,
        }
    }
    let net = present(net, "network")?;
    let flows = present(flows, "flows")?;
    UpdateInstance::new(net, flows).or_else(|e| schema(format!("invalid instance: {e}")))
}

/// Reads the next value of `reader` as an instance written by
/// [`write_instance`], validating every flow against the decoded
/// network.
///
/// The outer error is the grammar's: the text is not JSON, and the
/// enclosing document is lost with it. The inner one is the schema's:
/// the value is JSON but not an instance. Then the reader has read past
/// the whole value, so the enclosing document can still be read to its
/// end (a request line with a bad instance is a bad request, not a bad
/// line).
pub fn read_instance(
    reader: &mut Reader<'_>,
) -> Result<Result<UpdateInstance, CodecError>, serde_json::Error> {
    let mark = reader.mark();
    match instance(reader) {
        Ok(decoded) => Ok(Ok(decoded)),
        Err(Stop::Json(e)) => Err(e),
        Err(Stop::Schema(e)) => {
            reader.rewind(mark);
            reader.skip_value()?;
            Ok(Err(e))
        }
    }
}

/// Decodes a whole document holding one instance (see
/// [`read_instance`]); a grammar error is a [`CodecError`] too.
pub fn instance_from_str(text: &str) -> Result<UpdateInstance, CodecError> {
    let mut reader = Reader::new(text);
    let json = |e: serde_json::Error| CodecError(e.to_string());
    let decoded = read_instance(&mut reader).map_err(json)??;
    reader.finish().map_err(json)?;
    Ok(decoded)
}

/// [`write_instance`]'s document as a [`Value`] tree.
pub fn instance_to_value(instance: &UpdateInstance) -> Value {
    let mut text = String::new();
    write_instance(instance, &mut text);
    // The writer's output is always one valid document.
    serde_json::from_str(&text).unwrap_or(Value::Null)
}

/// Decodes an instance held as a [`Value`] tree: its compact text
/// through [`instance_from_str`].
pub fn instance_from_value(v: &Value) -> Result<UpdateInstance, CodecError> {
    instance_from_str(&v.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{motivating_example, reversal_instance};

    fn written(inst: &UpdateInstance) -> String {
        let mut text = String::new();
        write_instance(inst, &mut text);
        text
    }

    #[test]
    fn instance_round_trips_exactly() {
        for inst in [
            motivating_example(),
            reversal_instance(5, u64::MAX, u64::MAX / 2),
        ] {
            let text = written(&inst);
            assert_eq!(text, instance_to_value(&inst).to_string());
            let back = instance_from_str(&text).unwrap();
            assert_eq!(back.flows, inst.flows);
            assert_eq!(
                back.network.switch_count(),
                inst.network.switch_count(),
                "switch arena preserved"
            );
            let (a, b): (Vec<_>, Vec<_>) = (
                back.network.links().collect(),
                inst.network.links().collect(),
            );
            assert_eq!(a, b, "link arena preserved in canonical order");
            for s in inst.network.switches() {
                assert_eq!(back.network.switch_name(s), inst.network.switch_name(s));
            }
            assert_eq!(written(&back), text);
        }
    }

    #[test]
    fn decode_rejects_structural_garbage() {
        let err = instance_from_str(r#"{"network": {"switches": []}}"#).unwrap_err();
        assert!(err.to_string().contains("links"), "{err}");
        // A link quad referencing a missing switch fails builder
        // validation, not just shape checks.
        let net = r#"{"switches": ["a"], "links": [[0, 9, 1, 1]]}"#;
        let err = instance_from_str(&format!(r#"{{"network": {net}, "flows": []}}"#)).unwrap_err();
        assert!(err.to_string().contains("invalid link"), "{err}");
        // Zero demand is rejected by Flow::new.
        let net = r#"{"switches": ["a", "b"], "links": [[0, 1, 1, 1]]}"#;
        let flow = r#"{"id": 0, "demand": 0, "initial": [0, 1], "final": [0, 1]}"#;
        let err =
            instance_from_str(&format!(r#"{{"network": {net}, "flows": [{flow}]}}"#)).unwrap_err();
        assert!(err.to_string().contains("invalid flow"), "{err}");
        // Grammar errors are codec errors at this entry point too.
        assert!(instance_from_str(r#"{"network": {"#).is_err());
    }

    /// A schema error leaves the reader past the whole value, so the
    /// document around it reads on; a grammar error inside it does not.
    #[test]
    fn a_bad_instance_is_skipped_whole() {
        let line = r#"{"instance": {"flows": 5, "network": {"x": [1, {"y": 2}]}}, "after": 1}"#;
        let mut r = Reader::new(line);
        assert_eq!(r.token().unwrap(), Token::Object);
        assert_eq!(r.next_key().unwrap().as_deref(), Some("instance"));
        let err = read_instance(&mut r).unwrap().unwrap_err();
        assert!(err.to_string().contains("`flows` is not an array"), "{err}");
        assert_eq!(r.next_key().unwrap().as_deref(), Some("after"));
        assert_eq!(r.value().unwrap(), Value::Number(1.0));
        assert_eq!(r.next_key().unwrap(), None);
        r.finish().unwrap();

        let mut r = Reader::new(r#"{"flows": 5, "network": {"x": [1,]}}"#);
        assert!(read_instance(&mut r).is_err());
    }
}
