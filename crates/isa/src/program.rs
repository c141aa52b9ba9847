//! Executable program images.

use crate::digest::Sha256;
use crate::inst::Instruction;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Domain tag of [`Program::digest`].
const PROGRAM_DIGEST_TAG: &[u8] = b"sdo-program-v1\n";

/// A sparse initial data-memory image, byte-addressed.
///
/// Workload generators populate the image before simulation; the memory
/// model loads it into backing store at reset. Unwritten bytes read as 0.
///
/// Images are copy-on-write: clones share one map (and its memoised
/// [`digest`](Self::digest)) until either side is written, so the many
/// run requests built from one program never copy its bytes.
///
/// # Examples
///
/// ```rust
/// use sdo_isa::DataImage;
/// let mut img = DataImage::new();
/// img.set_word(0x100, 0xdead_beef);
/// assert_eq!(img.word(0x100), 0xdead_beef);
/// assert_eq!(img.byte(0x100), 0xef); // little-endian
/// assert_eq!(img.word(0x200), 0);
/// ```
#[derive(Clone, Default)]
pub struct DataImage {
    inner: Arc<ImageInner>,
}

#[derive(Clone, Default)]
struct ImageInner {
    bytes: BTreeMap<u64, u8>,
    /// The digest of `bytes`, computed on first use; every mutation
    /// resets it.
    digest: OnceLock<[u8; 32]>,
}

impl DataImage {
    /// Creates an empty (all-zero) image.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The map, unshared (copied if a clone still holds it) and with
    /// the digest memo reset: the one door every mutator goes through.
    fn bytes_mut(&mut self) -> &mut BTreeMap<u64, u8> {
        let inner = Arc::make_mut(&mut self.inner);
        inner.digest.take();
        &mut inner.bytes
    }

    /// Writes one byte.
    pub fn set_byte(&mut self, addr: u64, value: u8) {
        put(self.bytes_mut(), addr, value);
    }

    /// Writes a 64-bit little-endian word at `addr`.
    pub fn set_word(&mut self, addr: u64, value: u64) {
        let bytes = self.bytes_mut();
        for (i, b) in value.to_le_bytes().iter().enumerate() {
            put(bytes, addr.wrapping_add(i as u64), *b);
        }
    }

    /// Writes an IEEE-754 binary64 value (bit-exact) at `addr`.
    pub fn set_f64(&mut self, addr: u64, value: f64) {
        self.set_word(addr, value.to_bits());
    }

    /// Reads one byte (0 if never written).
    #[must_use]
    pub fn byte(&self, addr: u64) -> u8 {
        self.inner.bytes.get(&addr).copied().unwrap_or(0)
    }

    /// Reads a 64-bit little-endian word at `addr`.
    #[must_use]
    pub fn word(&self, addr: u64) -> u64 {
        let mut le = [0u8; 8];
        for (i, b) in le.iter_mut().enumerate() {
            *b = self.byte(addr.wrapping_add(i as u64));
        }
        u64::from_le_bytes(le)
    }

    /// Iterates over all explicitly-written (non-zero) bytes in address
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u8)> + '_ {
        self.inner.bytes.iter().map(|(&a, &b)| (a, b))
    }

    /// Number of explicitly-written bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.bytes.len()
    }

    /// Whether the image has no explicitly-written bytes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.bytes.is_empty()
    }

    /// The SHA-256 of the image's canonical binary encoding: the count
    /// of written bytes (u64 little-endian), then each `(addr, byte)`
    /// in address order as an 8-byte little-endian address and the
    /// byte. Computed once and shared by every clone.
    #[must_use]
    pub fn digest(&self) -> [u8; 32] {
        *self.inner.digest.get_or_init(|| {
            let mut h = Sha256::new();
            h.update(&(self.inner.bytes.len() as u64).to_le_bytes());
            for (&addr, &byte) in &self.inner.bytes {
                let mut entry = [0u8; 9];
                entry[..8].copy_from_slice(&addr.to_le_bytes());
                entry[8] = byte;
                h.update(&entry);
            }
            h.finish()
        })
    }
}

/// Writes one byte into a map, pruning zeros (unwritten reads as 0).
fn put(bytes: &mut BTreeMap<u64, u8>, addr: u64, value: u8) {
    if value == 0 {
        bytes.remove(&addr);
    } else {
        bytes.insert(addr, value);
    }
}

// By hand so the shared, memoising layout stays invisible: an image
// prints and compares as its bytes alone.
impl fmt::Debug for DataImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DataImage").field("bytes", &self.inner.bytes).finish()
    }
}

impl PartialEq for DataImage {
    fn eq(&self, other: &Self) -> bool {
        self.inner.bytes == other.inner.bytes
    }
}

impl Eq for DataImage {}

impl Extend<(u64, u8)> for DataImage {
    fn extend<T: IntoIterator<Item = (u64, u8)>>(&mut self, iter: T) {
        let bytes = self.bytes_mut();
        for (a, b) in iter {
            put(bytes, a, b);
        }
    }
}

impl FromIterator<(u64, u8)> for DataImage {
    fn from_iter<T: IntoIterator<Item = (u64, u8)>>(iter: T) -> Self {
        let mut img = DataImage::new();
        img.extend(iter);
        img
    }
}

/// An executable program: instruction memory plus initial data image.
///
/// Execution starts at instruction index 0 and ends when a
/// [`Instruction::Halt`] commits. Fetching past the end of the instruction
/// array yields `Halt` (so runaway wrong-path fetch is well-defined).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    name: String,
    insts: Vec<Instruction>,
    data: DataImage,
}

impl Program {
    /// Creates a program from parts.
    #[must_use]
    pub fn new(name: impl Into<String>, insts: Vec<Instruction>, data: DataImage) -> Self {
        Program { name: name.into(), insts, data }
    }

    /// The program's human-readable name (used in experiment tables).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the program.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Fetches the instruction at `pc`; out-of-range fetch returns `Halt`.
    ///
    /// Out-of-range program counters arise routinely on the wrong path of a
    /// mispredicted branch, so this is total rather than panicking.
    #[must_use]
    pub fn fetch(&self, pc: u64) -> Instruction {
        usize::try_from(pc)
            .ok()
            .and_then(|i| self.insts.get(i))
            .copied()
            .unwrap_or(Instruction::Halt)
    }

    /// The instruction memory.
    #[must_use]
    pub fn instructions(&self) -> &[Instruction] {
        &self.insts
    }

    /// Number of static instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The initial data-memory image.
    #[must_use]
    pub fn data(&self) -> &DataImage {
        &self.data
    }

    /// Mutable access to the initial data-memory image.
    pub fn data_mut(&mut self) -> &mut DataImage {
        &mut self.data
    }

    /// The program's content address: the SHA-256 of a domain tag, the
    /// length-prefixed name, the length-prefixed disassembly and the
    /// image [`digest`](DataImage::digest) — the three parts that define
    /// a program (the disassembly round-trips through
    /// [`parse_asm`](crate::parse_asm) instruction for instruction).
    #[must_use]
    pub fn digest(&self) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(PROGRAM_DIGEST_TAG);
        for part in [self.name.as_str(), self.disassemble().as_str()] {
            h.update(&(part.len() as u64).to_le_bytes());
            h.update(part.as_bytes());
        }
        h.update(&self.data.digest());
        h.finish()
    }

    /// Renders a full disassembly listing.
    #[must_use]
    pub fn disassemble(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for (i, inst) in self.insts.iter().enumerate() {
            let _ = writeln!(out, "{i:6}: {inst}");
        }
        out
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} insts, {} data bytes)", self.name, self.insts.len(), self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, Instruction};
    use crate::reg::Reg;

    #[test]
    fn data_image_word_roundtrip() {
        let mut img = DataImage::new();
        img.set_word(64, 0x0123_4567_89ab_cdef);
        assert_eq!(img.word(64), 0x0123_4567_89ab_cdef);
        assert_eq!(img.byte(64), 0xef);
        assert_eq!(img.byte(71), 0x01);
    }

    #[test]
    fn data_image_f64_roundtrip() {
        let mut img = DataImage::new();
        img.set_f64(8, 3.75);
        assert_eq!(f64::from_bits(img.word(8)), 3.75);
    }

    #[test]
    fn data_image_unwritten_reads_zero() {
        let img = DataImage::new();
        assert_eq!(img.word(0), 0);
        assert!(img.is_empty());
    }

    #[test]
    fn data_image_zero_write_prunes_entry() {
        let mut img = DataImage::new();
        img.set_byte(5, 7);
        assert_eq!(img.len(), 1);
        img.set_byte(5, 0);
        assert!(img.is_empty());
    }

    #[test]
    fn data_image_overlapping_words() {
        let mut img = DataImage::new();
        img.set_word(0, u64::MAX);
        img.set_word(4, 0);
        assert_eq!(img.word(0), 0x0000_0000_ffff_ffff);
    }

    #[test]
    fn data_image_collect_and_iter() {
        let img: DataImage = [(1u64, 2u8), (3, 4)].into_iter().collect();
        let v: Vec<_> = img.iter().collect();
        assert_eq!(v, vec![(1, 2), (3, 4)]);
    }

    #[test]
    fn data_image_digest_is_the_canonical_encoding() {
        let img: DataImage = [(3u64, 4u8), (1, 2)].into_iter().collect();
        let mut encoding = 2u64.to_le_bytes().to_vec();
        for (addr, byte) in [(1u64, 2u8), (3, 4)] {
            encoding.extend_from_slice(&addr.to_le_bytes());
            encoding.push(byte);
        }
        assert_eq!(img.digest(), crate::sha256(&encoding));
        assert_eq!(DataImage::new().digest(), crate::sha256(&0u64.to_le_bytes()));
    }

    #[test]
    fn mutating_a_clone_leaves_the_original_alone() {
        let mut original = DataImage::new();
        original.set_word(0x40, 0x1122_3344_5566_7788);
        let digest = original.digest();
        let mut copy = original.clone();
        assert_eq!(copy.digest(), digest, "clones share the image and its digest");
        copy.set_byte(0x40, 0xff);
        copy.set_word(0x80, 7);
        assert_eq!(original.word(0x40), 0x1122_3344_5566_7788);
        assert_eq!(original.word(0x80), 0);
        assert_eq!(original.len(), 8);
        assert_eq!(original.digest(), digest);
        assert_ne!(copy.digest(), digest);
        assert_ne!(copy, original);
    }

    #[test]
    fn every_mutator_invalidates_the_digest() {
        let mut img: DataImage = [(8u64, 1u8)].into_iter().collect();
        type Edit = (&'static str, fn(&mut DataImage));
        let edits: [Edit; 4] = [
            ("set_byte", |i| i.set_byte(9, 2)),
            ("set_word", |i| i.set_word(16, 3)),
            ("set_f64", |i| i.set_f64(24, 1.5)),
            ("extend", |i| i.extend([(40u64, 5u8)])),
        ];
        for (name, edit) in edits {
            let before = img.digest();
            let shared = img.clone();
            edit(&mut img);
            let fresh: DataImage = img.iter().collect();
            assert_ne!(img.digest(), before, "{name} must reset the digest");
            assert_eq!(img.digest(), fresh.digest(), "{name}: digest is of the new bytes");
            assert_eq!(shared.digest(), before, "{name} must not touch a clone");
        }

        let mut p = Program::new("t", vec![Instruction::Halt], img.clone());
        let before = p.digest();
        p.data_mut().set_byte(0x100, 9);
        assert_ne!(p.data().digest(), img.digest(), "data_mut edits reset the image digest");
        assert_ne!(p.digest(), before, "...and so the program's");
        p.data_mut().set_byte(0x100, 0);
        assert_eq!(p.digest(), before, "the digest is a function of the bytes alone");
    }

    #[test]
    fn image_and_program_debug_and_eq_show_only_the_contents() {
        let img: DataImage = [(1u64, 2u8), (3, 4)].into_iter().collect();
        let _ = img.digest();
        assert_eq!(format!("{img:?}"), "DataImage { bytes: {1: 2, 3: 4} }");
        let p = Program::new("p", vec![Instruction::Halt], img.clone());
        assert_eq!(
            format!("{p:?}"),
            "Program { name: \"p\", insts: [Halt], data: DataImage { bytes: {1: 2, 3: 4} } }"
        );
        // Equal contents compare equal whether or not they share storage.
        let rebuilt: DataImage = img.iter().collect();
        assert_eq!(rebuilt, img);
        assert_eq!(Program::new("p", vec![Instruction::Halt], rebuilt), p);
        assert_ne!(Program::new("q", vec![Instruction::Halt], img), p);
    }

    #[test]
    fn program_fetch_out_of_range_is_halt() {
        let p = Program::new(
            "t",
            vec![Instruction::Alu { op: AluOp::Add, dst: Reg::new(1), lhs: Reg::ZERO, rhs: Reg::ZERO }],
            DataImage::new(),
        );
        assert!(matches!(p.fetch(0), Instruction::Alu { .. }));
        assert_eq!(p.fetch(1), Instruction::Halt);
        assert_eq!(p.fetch(u64::MAX), Instruction::Halt);
    }

    #[test]
    fn program_display_and_disassembly() {
        let p = Program::new("demo", vec![Instruction::Nop, Instruction::Halt], DataImage::new());
        assert!(p.to_string().contains("demo"));
        let dis = p.disassemble();
        assert!(dis.contains("nop"));
        assert!(dis.contains("halt"));
    }
}
