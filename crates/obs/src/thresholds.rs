//! The versioned `thresholds-v1` artifact: a portable JSON table of
//! protocol-switch thresholds.
//!
//! This is the interchange format between the observability tooling and
//! the runtime: `gdrprof crossover --suggest` emits one from measured
//! crossover points, `gdrprof whatif --thresholds` replays recorded
//! decisions against one, and `RuntimeConfig` loads one (via
//! `GDR_SHMEM_THRESHOLDS` or `with_threshold_table`) to override the
//! compiled-in tuned constants ([`Limits::TUNED`]).
//!
//! Wire format (entries sorted by name, serialization deterministic):
//!
//! ```json
//! {"schema":"thresholds-v1","entries":{"gdr_put_limit":32768}}
//! ```

use crate::json::{self, ObjWriter, Value};
use crate::plan::Limits;
use std::collections::BTreeMap;

/// Schema marker of the artifact.
pub const THRESHOLDS_SCHEMA: &str = "thresholds-v1";

/// A parsed, validated `thresholds-v1` table. Entries are a subset of
/// [`Limits::NAMES`] — exactly the tunables the dispatch table consults
/// and decision records cite by name; absent names leave the runtime
/// default intact.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ThresholdTable {
    entries: BTreeMap<String, u64>,
}

impl ThresholdTable {
    pub fn new() -> ThresholdTable {
        ThresholdTable::default()
    }

    /// Set one entry; rejects names the runtime does not understand
    /// (an unknown name in an artifact is a hard error).
    pub fn set(&mut self, name: &str, value: u64) -> Result<(), String> {
        // the table's own name -> field map is the validator
        let mut probe = Limits::TUNED;
        probe.set(name, value)?;
        self.entries.insert(name.to_string(), value);
        Ok(())
    }

    /// Overlay every entry onto `limits`.
    pub fn apply(&self, limits: &mut Limits) {
        for (name, value) in self.iter() {
            limits.set(name, value).expect("entries are validated on insert");
        }
    }

    pub fn get(&self, name: &str) -> Option<u64> {
        self.entries.get(name).copied()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Entries in sorted-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.entries.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Parse and validate a `thresholds-v1` JSON document. Every
    /// failure names what was wrong — these files are hand-editable and
    /// autotuner-generated, so silent acceptance of garbage is the one
    /// thing this loader must never do.
    pub fn from_json_str(doc: &str) -> Result<ThresholdTable, String> {
        let v = json::parse(doc).map_err(|e| format!("thresholds: not JSON: {e}"))?;
        match v.get("schema").and_then(Value::as_str) {
            Some(THRESHOLDS_SCHEMA) => {}
            Some(other) => {
                return Err(format!(
                    "thresholds: schema {other:?}, expected {THRESHOLDS_SCHEMA:?}"
                ))
            }
            None => return Err("thresholds: missing \"schema\" field".to_string()),
        }
        let entries = v
            .get("entries")
            .ok_or("thresholds: missing \"entries\" object")?
            .as_obj()
            .ok_or("thresholds: \"entries\" is not an object")?;
        let mut t = ThresholdTable::new();
        for (name, val) in entries {
            let n = val
                .as_f64()
                .ok_or_else(|| format!("thresholds: entry {name:?} is not a number"))?;
            if n < 0.0 || n != n.trunc() || n > u64::MAX as f64 {
                return Err(format!(
                    "thresholds: entry {name:?} must be a non-negative integer, got {n}"
                ));
            }
            t.set(name, n as u64)?;
        }
        Ok(t)
    }

    /// Deterministic serialization (sorted entries, no whitespace),
    /// terminated by a newline so emitted artifacts `cmp` cleanly.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + 32 * self.entries.len());
        let mut o = ObjWriter::new(&mut out);
        o.str_field("schema", THRESHOLDS_SCHEMA);
        {
            let buf = o.raw_field("entries");
            let mut e = ObjWriter::new(buf);
            for (name, &value) in &self.entries {
                e.u64_field(name, value);
            }
            e.finish();
        }
        o.finish();
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_stays_sorted() {
        let mut t = ThresholdTable::new();
        t.set("proxy_get_min", 524288).unwrap();
        t.set("gdr_put_limit", 32768).unwrap();
        let doc = t.to_json();
        assert!(doc.starts_with("{\"schema\":\"thresholds-v1\""));
        assert!(doc.ends_with('\n'));
        // sorted entry order regardless of insertion order
        assert!(doc.find("gdr_put_limit").unwrap() < doc.find("proxy_get_min").unwrap());
        let back = ThresholdTable::from_json_str(&doc).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.get("gdr_put_limit"), Some(32768));
        assert_eq!(back.get("loopback_put_limit"), None);
    }

    #[test]
    fn rejects_unknown_names_and_bad_values() {
        assert!(ThresholdTable::new().set("warp_core_limit", 1).is_err());
        let e = ThresholdTable::from_json_str(
            r#"{"schema":"thresholds-v1","entries":{"warp_core_limit":1}}"#,
        )
        .unwrap_err();
        assert!(e.contains("warp_core_limit"), "error must name the entry: {e}");
        let e = ThresholdTable::from_json_str(
            r#"{"schema":"thresholds-v1","entries":{"gdr_put_limit":-5}}"#,
        )
        .unwrap_err();
        assert!(e.contains("non-negative"), "{e}");
        let e = ThresholdTable::from_json_str(r#"{"schema":"thresholds-v2","entries":{}}"#)
            .unwrap_err();
        assert!(e.contains("schema"), "{e}");
        assert!(ThresholdTable::from_json_str("not json").is_err());
        assert!(ThresholdTable::from_json_str(r#"{"entries":{}}"#).is_err());
    }

    #[test]
    fn empty_table_is_valid() {
        let t = ThresholdTable::from_json_str(r#"{"schema":"thresholds-v1","entries":{}}"#)
            .unwrap();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
