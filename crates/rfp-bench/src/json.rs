//! A small builder for the bench harness's machine-readable artefacts, on
//! top of the workspace's one JSON escaper and number formatter
//! (`rfp_floorplan::jsonio`). Output is deterministic (insertion order) and
//! restricted to what the `defrag_sim` artefact needs: objects, arrays,
//! strings and numbers.

use rfp_floorplan::jsonio::{escape, num};

/// An object under construction.
#[derive(Debug, Default)]
pub struct Object {
    fields: Vec<String>,
}

impl Object {
    /// Starts an empty object.
    pub fn new() -> Object {
        Object::default()
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Object {
        self.fields.push(format!("\"{}\":\"{}\"", escape(key), escape(value)));
        self
    }

    /// Adds a numeric field (`null` for non-finite values).
    pub fn num(mut self, key: &str, value: f64) -> Object {
        self.fields.push(format!("\"{}\":{}", escape(key), num(value)));
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, value: u64) -> Object {
        self.fields.push(format!("\"{}\":{value}", escape(key)));
        self
    }

    /// Adds a field whose value is already-rendered JSON.
    pub fn raw(mut self, key: &str, value: String) -> Object {
        self.fields.push(format!("\"{}\":{value}", escape(key)));
        self
    }

    /// Renders the object.
    pub fn build(self) -> String {
        format!("{{{}}}", self.fields.join(","))
    }
}

/// Renders an array of already-rendered JSON values.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    let items: Vec<String> = items.into_iter().collect();
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_arrays_and_escaping() {
        let obj = Object::new()
            .str("name", "a \"b\"\n")
            .num("pi", 3.5)
            .num("gap", f64::INFINITY)
            .int("n", 42)
            .raw("rows", array(vec!["1".into(), "2".into()]))
            .build();
        assert_eq!(
            obj,
            "{\"name\":\"a \\\"b\\\"\\n\",\"pi\":3.5,\"gap\":null,\"n\":42,\"rows\":[1,2]}"
        );
    }

    #[test]
    fn empty_object_and_array() {
        assert_eq!(Object::new().build(), "{}");
        assert_eq!(array(Vec::new()), "[]");
    }
}
