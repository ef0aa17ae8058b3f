//! Kernel output gathering.
//!
//! At the end of a run, the engine gathers the kernel's declared output
//! arrays from every tile back into global vertex order — the inverse of
//! the data distribution — so results can be compared against the reference
//! implementations, exactly as the paper validates its simulator against
//! sequential x86 executions.

use std::collections::BTreeMap;

/// The gathered output of a kernel run: one global `u32` array per declared
/// output array, in vertex order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KernelOutput {
    arrays: BTreeMap<String, Vec<u32>>,
}

impl KernelOutput {
    /// Creates an empty output set.
    pub fn new() -> Self {
        KernelOutput::default()
    }

    /// Inserts a gathered array under `name`.
    pub fn insert(&mut self, name: &str, values: Vec<u32>) {
        self.arrays.insert(name.to_string(), values);
    }

    /// Names of the gathered arrays.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.arrays.keys().map(String::as_str)
    }

    /// The array gathered under `name`, if present.
    pub fn get(&self, name: &str) -> Option<&[u32]> {
        self.arrays.get(name).map(Vec::as_slice)
    }

    /// The array gathered under `name`.
    ///
    /// # Panics
    ///
    /// Panics if no array with that name was gathered.
    pub fn as_u32_array(&self, name: &str) -> &[u32] {
        self.get(name)
            .unwrap_or_else(|| panic!("kernel produced no output array named {name:?}"))
    }

    /// The array gathered under `name`, widened to `u64` (convenient for
    /// comparing against the fixed-point PageRank reference).
    pub fn as_u64_array(&self, name: &str) -> Vec<u64> {
        self.as_u32_array(name)
            .iter()
            .map(|&v| u64::from(v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut out = KernelOutput::new();
        out.insert("dist", vec![1, 2, 3]);
        out.insert("depth", vec![9]);
        assert_eq!(out.as_u32_array("dist"), &[1, 2, 3]);
        assert_eq!(out.get("missing"), None);
        let names: Vec<&str> = out.names().collect();
        assert_eq!(names, vec!["depth", "dist"]);
        assert_eq!(out.as_u64_array("depth"), vec![9u64]);
    }

    #[test]
    #[should_panic(expected = "no output array")]
    fn missing_array_panics_with_name() {
        let out = KernelOutput::new();
        let _ = out.as_u32_array("dist");
    }
}
