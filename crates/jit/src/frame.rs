//! Register frames: the flat, typed view of a tuple that compiled kernels
//! read.
//!
//! "Data bindings retrieved from each 'tuple' of a raw file are placed in
//! CPU registers and are kept there for the majority of a query's processing
//! steps" (§4.1). A [`FrameLayout`] assigns one 64-bit slot to each scalar
//! *path* (`p.age`, `g.id`, or a bare variable) the query needs; the
//! executor fills a `[i64]` frame per tuple and the kernel indexes it
//! directly.
//!
//! Slot encodings: `Int` → the value; `Float` → IEEE bits; `Bool` → 0/1;
//! `Str` → an id from the session [`StringInterner`]. A tuple containing
//! `null` (or a non-scalar) in any needed slot does not produce a frame —
//! the caller routes that tuple through the interpreted fallback so
//! null-propagation semantics stay exact.

use std::collections::HashMap;
use vida_types::{Type, Value};

/// Static type of one frame slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotType {
    Int,
    Float,
    Bool,
    /// Interned string id (supports equality only).
    Str,
}

impl SlotType {
    /// Slot type for a scalar ViDa type, if representable.
    pub fn of_type(t: &Type) -> Option<SlotType> {
        match t {
            Type::Int => Some(SlotType::Int),
            Type::Float => Some(SlotType::Float),
            Type::Bool => Some(SlotType::Bool),
            Type::Str => Some(SlotType::Str),
            _ => None,
        }
    }

    /// The slot bits of `v` in a slot of this type — the one value-to-frame
    /// encoding every frame filler uses. `None` when the value is null, a
    /// different scalar than declared, or not a scalar at all (the tuple
    /// then takes the interpreted fallback). `Str` values become the id
    /// `intern` returns, so the caller picks the interner and its locking.
    #[inline]
    pub fn encode(self, v: &Value, intern: impl FnOnce(&str) -> i64) -> Option<i64> {
        match (self, v) {
            (SlotType::Int, Value::Int(x)) => Some(*x),
            (SlotType::Float, Value::Float(x)) => Some(x.to_bits() as i64),
            (SlotType::Float, Value::Int(x)) => Some((*x as f64).to_bits() as i64),
            (SlotType::Bool, Value::Bool(b)) => Some(*b as i64),
            (SlotType::Str, Value::Str(s)) => Some(intern(s)),
            _ => None,
        }
    }

    /// [`SlotType::encode`] over a run of cells: `out[i]` gets the bits of
    /// `cells[i]`, and `valid[i]` is cleared where the cell cannot encode
    /// (its `out[i]` is then unspecified). `Str` cells intern through
    /// `interner` under one read guard for the whole run, taking the write
    /// lock only for a string the dictionary has not seen.
    pub fn encode_cells(
        self,
        cells: &[Value],
        interner: &SharedInterner,
        out: &mut [i64],
        valid: &mut [bool],
    ) {
        let cells = cells.iter().zip(out).zip(valid);
        if self != SlotType::Str {
            for ((v, o), ok) in cells {
                match self.encode(v, |_| unreachable!("only `Str` slots intern")) {
                    Some(bits) => *o = bits,
                    None => *ok = false,
                }
            }
            return;
        }
        let mut dict = interner.inner.read();
        for ((v, o), ok) in cells {
            let Value::Str(s) = v else {
                *ok = false;
                continue;
            };
            *o = match dict.lookup(s) {
                Some(id) => id,
                None => {
                    drop(dict);
                    let id = interner.inner.write().intern(s);
                    dict = interner.inner.read();
                    id
                }
            };
        }
    }
}

/// Maps scalar paths to slot indexes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrameLayout {
    slots: Vec<(String, SlotType)>,
    index: HashMap<String, usize>,
}

impl FrameLayout {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add (or find) a slot for `path`. Returns its index. Adding an
    /// existing path with a different type widens Int→Float and otherwise
    /// keeps the first type (callers resolve types beforehand).
    pub fn slot(&mut self, path: impl Into<String>, ty: SlotType) -> usize {
        let path = path.into();
        if let Some(&i) = self.index.get(&path) {
            if self.slots[i].1 == SlotType::Int && ty == SlotType::Float {
                self.slots[i].1 = SlotType::Float;
            }
            return i;
        }
        let i = self.slots.len();
        self.slots.push((path.clone(), ty));
        self.index.insert(path, i);
        i
    }

    pub fn lookup(&self, path: &str) -> Option<(usize, SlotType)> {
        self.index.get(path).map(|&i| (i, self.slots[i].1))
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    pub fn slots(&self) -> &[(String, SlotType)] {
        &self.slots
    }
}

/// Session-scoped string interner. Ids are dense and stable for the life of
/// the interner, so equal strings always get equal ids — which is all the
/// compiled `=`/`!=` on strings needs.
#[derive(Debug, Default)]
pub struct StringInterner {
    map: HashMap<String, i64>,
    names: Vec<String>,
}

impl StringInterner {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn intern(&mut self, s: &str) -> i64 {
        if let Some(&id) = self.map.get(s) {
            return id;
        }
        let id = self.map.len() as i64;
        self.map.insert(s.to_string(), id);
        self.names.push(s.to_string());
        id
    }

    /// The id of an already-interned string, without interning.
    pub fn lookup(&self, s: &str) -> Option<i64> {
        self.map.get(s).copied()
    }

    /// The string behind an id (the inverse of [`StringInterner::intern`]),
    /// used to decode `Str`-typed kernel outputs back into values.
    pub fn resolve(&self, id: i64) -> Option<&str> {
        usize::try_from(id)
            .ok()
            .and_then(|i| self.names.get(i))
            .map(String::as_str)
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Engine-scoped string dictionary: a thread-safe [`StringInterner`] that
/// concurrent sessions — and the parallel unnest hot loop encoding `Str`
/// elements — can intern through with `&self`.
///
/// Ids are dense and stable for the life of the dictionary, so equal
/// strings always compare equal by id across every query that shares it.
/// The read-optimistic fast path makes re-interning an already-seen string
/// (the common case once an earlier query saw a dataset's strings) a
/// read-lock probe.
#[derive(Debug, Default)]
pub struct SharedInterner {
    inner: vida_types::sync::RwLock<StringInterner>,
}

impl SharedInterner {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `s`, returning its stable dense id.
    pub fn intern(&self, s: &str) -> i64 {
        if let Some(id) = self.inner.read().lookup(s) {
            return id;
        }
        self.inner.write().intern(s)
    }

    /// The string behind an id, cloned out of the dictionary.
    pub fn resolve(&self, id: i64) -> Option<String> {
        self.inner.read().resolve(id).map(str::to_string)
    }

    /// Run `f` with exclusive access to the underlying [`StringInterner`] —
    /// the bridge to `&mut`-shaped consumers like [`crate::JitCompiler`].
    pub fn with_mut<T>(&self, f: impl FnOnce(&mut StringInterner) -> T) -> T {
        f(&mut self.inner.write())
    }

    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }
}

/// Fills frames from values according to a layout.
pub struct FrameBuilder {
    layout: FrameLayout,
    interner: StringInterner,
}

impl FrameBuilder {
    pub fn new(layout: FrameLayout) -> Self {
        FrameBuilder {
            layout,
            interner: StringInterner::new(),
        }
    }

    pub fn layout(&self) -> &FrameLayout {
        &self.layout
    }

    pub fn interner_mut(&mut self) -> &mut StringInterner {
        &mut self.interner
    }

    /// Encode one value into slot `i` of `frame`. Returns `false` (frame
    /// unusable) when the value is null, a different scalar than declared,
    /// or not a scalar at all.
    pub fn fill_slot(&mut self, frame: &mut [i64], i: usize, v: &Value) -> bool {
        let (_, ty) = self.layout.slots[i];
        match ty.encode(v, |s| self.interner.intern(s)) {
            Some(bits) => {
                frame[i] = bits;
                true
            }
            None => false,
        }
    }

    pub fn intern(&mut self, s: &str) -> i64 {
        self.interner.intern(s)
    }

    /// Build a full frame from per-slot values (slot order). `None` if any
    /// slot cannot be encoded.
    pub fn build(&mut self, values: &[&Value]) -> Option<Vec<i64>> {
        debug_assert_eq!(values.len(), self.layout.len());
        let mut frame = vec![0i64; self.layout.len()];
        for (i, v) in values.iter().enumerate() {
            if !self.fill_slot(&mut frame, i, v) {
                return None;
            }
        }
        Some(frame)
    }
}

/// Decode a kernel result according to its declared output.
pub fn decode_output(bits: i64, ty: SlotType) -> Value {
    match ty {
        SlotType::Int => Value::Int(bits),
        SlotType::Float => Value::Float(f64::from_bits(bits as u64)),
        SlotType::Bool => Value::Bool(bits != 0),
        SlotType::Str => Value::Int(bits), // interned id; caller resolves
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_dedups_paths() {
        let mut l = FrameLayout::new();
        let a = l.slot("p.age", SlotType::Int);
        let b = l.slot("p.age", SlotType::Int);
        let c = l.slot("g.v", SlotType::Float);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(l.len(), 2);
        assert_eq!(l.lookup("p.age"), Some((0, SlotType::Int)));
        assert_eq!(l.lookup("nope"), None);
    }

    #[test]
    fn int_slot_widens_to_float() {
        let mut l = FrameLayout::new();
        l.slot("x", SlotType::Int);
        l.slot("x", SlotType::Float);
        assert_eq!(l.lookup("x"), Some((0, SlotType::Float)));
    }

    #[test]
    fn builder_encodes_scalars() {
        let mut l = FrameLayout::new();
        l.slot("i", SlotType::Int);
        l.slot("f", SlotType::Float);
        l.slot("b", SlotType::Bool);
        l.slot("s", SlotType::Str);
        let mut fb = FrameBuilder::new(l);
        let vals = [
            Value::Int(7),
            Value::Float(2.5),
            Value::Bool(true),
            Value::str("hr"),
        ];
        let frame = fb.build(&vals.iter().collect::<Vec<_>>()).unwrap();
        assert_eq!(frame[0], 7);
        assert_eq!(f64::from_bits(frame[1] as u64), 2.5);
        assert_eq!(frame[2], 1);
        assert_eq!(frame[3], fb.intern("hr"));
    }

    #[test]
    fn int_promotes_into_float_slot() {
        let mut l = FrameLayout::new();
        l.slot("f", SlotType::Float);
        let mut fb = FrameBuilder::new(l);
        let v = Value::Int(3);
        let frame = fb.build(&[&v]).unwrap();
        assert_eq!(f64::from_bits(frame[0] as u64), 3.0);
    }

    #[test]
    fn null_or_mismatched_slot_fails() {
        let mut l = FrameLayout::new();
        l.slot("i", SlotType::Int);
        let mut fb = FrameBuilder::new(l);
        assert!(fb.build(&[&Value::Null]).is_none());
        assert!(fb.build(&[&Value::str("x")]).is_none());
        assert!(fb.build(&[&Value::bag(vec![])]).is_none());
    }

    #[test]
    fn interning_is_stable() {
        let mut i = StringInterner::new();
        let a1 = i.intern("alpha");
        let b = i.intern("beta");
        let a2 = i.intern("alpha");
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(i.len(), 2);
        assert_eq!(i.lookup("alpha"), Some(a1));
        assert_eq!(i.lookup("gamma"), None);
    }

    #[test]
    fn shared_interner_agrees_across_threads() {
        let shared = std::sync::Arc::new(SharedInterner::new());
        let ids: Vec<Vec<i64>> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    let shared = std::sync::Arc::clone(&shared);
                    scope.spawn(move || (0..50).map(|n| shared.intern(&format!("s{n}"))).collect())
                })
                .map(|h| h.join().unwrap())
                .collect()
        });
        // Every thread resolved every string to the same id, and the
        // dictionary holds each string once.
        for thread in &ids[1..] {
            assert_eq!(thread, &ids[0]);
        }
        assert_eq!(shared.len(), 50);
        assert_eq!(shared.resolve(ids[0][7]).as_deref(), Some("s7"));
        shared.with_mut(|si| {
            assert_eq!(si.lookup("s7"), Some(ids[0][7]));
        });
    }

    #[test]
    fn encode_cells_matches_encode_per_cell() {
        let shared = SharedInterner::new();
        let seen = shared.intern("seen");
        let cells = [
            Value::str("seen"),
            Value::Null,
            Value::str("new"),
            Value::Int(3),
            Value::str("new"),
        ];
        let mut out = [0i64; 5];
        let mut valid = [true; 5];
        SlotType::Str.encode_cells(&cells, &shared, &mut out, &mut valid);
        assert_eq!(valid, [true, false, true, false, true]);
        assert_eq!(out[0], seen);
        assert_eq!(
            (out[2], out[4]),
            (shared.intern("new"), shared.intern("new"))
        );
        assert_eq!(shared.len(), 2);
        let cells = [
            Value::Int(7),
            Value::Float(0.5),
            Value::Null,
            Value::Int(-2),
        ];
        for ty in [SlotType::Int, SlotType::Float, SlotType::Bool] {
            let (mut out, mut valid) = ([0i64; 4], [true; 4]);
            ty.encode_cells(&cells, &shared, &mut out, &mut valid);
            for (i, v) in cells.iter().enumerate() {
                let one = ty.encode(v, |_| unreachable!());
                assert_eq!(one.is_some(), valid[i], "{ty:?} {v}");
                assert_eq!(one.unwrap_or(out[i]), out[i], "{ty:?} {v}");
            }
        }
    }

    #[test]
    fn decode_round_trip() {
        assert_eq!(decode_output(42, SlotType::Int), Value::Int(42));
        assert_eq!(
            decode_output(2.5f64.to_bits() as i64, SlotType::Float),
            Value::Float(2.5)
        );
        assert_eq!(decode_output(1, SlotType::Bool), Value::Bool(true));
        assert_eq!(decode_output(0, SlotType::Bool), Value::Bool(false));
    }

    #[test]
    fn slot_type_of_type() {
        assert_eq!(SlotType::of_type(&Type::Int), Some(SlotType::Int));
        assert_eq!(SlotType::of_type(&Type::Str), Some(SlotType::Str));
        assert_eq!(SlotType::of_type(&Type::bag(Type::Int)), None);
    }
}
