//! Positive: unsafe code that does not say why it is sound.
pub struct Raw(*const u8);

unsafe impl Send for Raw {}

/// Reads the byte.
pub unsafe fn read(raw: &Raw) -> u8 {
    *raw.0
}

pub fn first(bytes: &[u8]) -> u8 {
    unsafe { *bytes.as_ptr() }
}
