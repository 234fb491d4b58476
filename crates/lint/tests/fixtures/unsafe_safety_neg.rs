//! Negative: every unsafe block, impl and fn states its condition.
pub struct Raw(*const u8);

// SAFETY: `Raw` only reads through its pointer, which points at static
// data.
unsafe impl Send for Raw {}

/// Reads the byte.
///
/// # Safety
///
/// `raw` must point at a live byte.
pub unsafe fn read(raw: &Raw) -> u8 {
    // SAFETY: the caller keeps `raw` live.
    unsafe { *raw.0 }
}

pub fn first(bytes: &[u8; 1]) -> u8 {
    // SAFETY: the array holds one byte.
    unsafe { *bytes.as_ptr() }
}
