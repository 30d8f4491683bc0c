//! Cache-line-aligned heap buffers.
//!
//! Packed GEMM panels must start on (at least) 32-byte boundaries for aligned
//! AVX loads, and aligning to the 64-byte cache line additionally avoids
//! split-line accesses and false sharing between the per-core panels the CAKE
//! executor hands to worker threads.

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout as AllocLayout};
use std::mem::ManuallyDrop;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// Alignment used for every matrix/panel allocation in the workspace.
pub const CACHE_LINE: usize = 64;

/// A fixed-capacity, 64-byte-aligned, zero-initialized buffer of `T`.
///
/// Semantically a `Box<[T]>` with guaranteed alignment. Zero-length buffers
/// perform no allocation.
pub struct AlignedBuf<T> {
    ptr: NonNull<T>,
    len: usize,
}

// SAFETY: `AlignedBuf` uniquely owns its allocation, exactly like `Box<[T]>`.
unsafe impl<T: Send> Send for AlignedBuf<T> {}
unsafe impl<T: Sync> Sync for AlignedBuf<T> {}

impl<T: Copy + Default> AlignedBuf<T> {
    /// Allocate a zeroed buffer of `len` elements aligned to [`CACHE_LINE`].
    ///
    /// # Panics
    /// Panics if the byte size overflows `isize` (the allocation layout is
    /// invalid) — consistent with `Vec` behaviour.
    pub fn zeroed(len: usize) -> Self {
        if len == 0 {
            return Self {
                ptr: NonNull::dangling(),
                len: 0,
            };
        }
        let layout = Self::layout(len);
        // SAFETY: layout has non-zero size (len > 0, T is not a ZST by
        // construction of the callers, but guard anyway below).
        assert!(layout.size() > 0, "zero-sized element types are unsupported");
        let raw = unsafe { alloc_zeroed(layout) };
        let Some(ptr) = NonNull::new(raw.cast::<T>()) else {
            handle_alloc_error(layout)
        };
        Self { ptr, len }
    }

    fn layout(len: usize) -> AllocLayout {
        let bytes = len
            .checked_mul(std::mem::size_of::<T>())
            .expect("allocation size overflow");
        AllocLayout::from_size_align(bytes, CACHE_LINE.max(std::mem::align_of::<T>()))
            .expect("invalid allocation layout")
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the buffer holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Raw constant pointer to the first element.
    #[inline]
    pub fn as_ptr(&self) -> *const T {
        self.ptr.as_ptr()
    }

    /// Raw mutable pointer to the first element.
    #[inline]
    pub fn as_mut_ptr(&mut self) -> *mut T {
        self.ptr.as_ptr()
    }
}

impl AlignedBuf<i32> {
    /// The same allocation as a buffer of `f32`, each element's bits
    /// unchanged. No element is copied.
    ///
    /// Keeps the invariant every `AlignedBuf<T>` relies on: `ptr` holds
    /// `len` initialized `T`s in an allocation made with
    /// `Self::layout(len)`, the layout `Drop` recomputes from `T` and
    /// `len`. `i32` and `f32` have the same size and alignment (checked at
    /// compile time below), so the `f32` buffer frees exactly the layout
    /// that was allocated; every `i32` bit pattern is a valid `f32`, so
    /// its elements are initialized. `ManuallyDrop` keeps `self` from
    /// freeing the allocation it hands on.
    pub(crate) fn into_f32_bits(self) -> AlignedBuf<f32> {
        const _: () = assert!(
            std::mem::size_of::<i32>() == std::mem::size_of::<f32>()
                && std::mem::align_of::<i32>() == std::mem::align_of::<f32>()
        );
        let this = ManuallyDrop::new(self);
        AlignedBuf {
            ptr: this.ptr.cast(),
            len: this.len,
        }
    }
}

impl<T> Drop for AlignedBuf<T> {
    fn drop(&mut self) {
        if self.len != 0 {
            let bytes = self.len * std::mem::size_of::<T>();
            let layout =
                AllocLayout::from_size_align(bytes, CACHE_LINE.max(std::mem::align_of::<T>()))
                    // audit: cold deallocation path, runs at buffer teardown not in the K loop
                    .expect("layout was validated at allocation time");
            // SAFETY: ptr was allocated with exactly this layout in `zeroed`.
            unsafe { dealloc(self.ptr.as_ptr().cast(), layout) };
        }
    }
}

impl<T> Deref for AlignedBuf<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: ptr/len describe a live, initialized allocation.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T> DerefMut for AlignedBuf<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: ptr/len describe a live, initialized allocation we own.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Copy + Default> Clone for AlignedBuf<T> {
    fn clone(&self) -> Self {
        let mut out = Self::zeroed(self.len);
        out.copy_from_slice(self);
        out
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for AlignedBuf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlignedBuf")
            .field("len", &self.len)
            .field("data", &&self[..self.len.min(8)])
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_is_zero_and_aligned() {
        let buf = AlignedBuf::<f32>::zeroed(1000);
        assert_eq!(buf.len(), 1000);
        assert!(buf.iter().all(|&x| x == 0.0));
        assert_eq!(buf.as_ptr() as usize % CACHE_LINE, 0);
    }

    #[test]
    fn zero_len_allocates_nothing_and_derefs_empty() {
        let buf = AlignedBuf::<f64>::zeroed(0);
        assert!(buf.is_empty());
        assert_eq!(&buf[..], &[] as &[f64]);
    }

    #[test]
    fn writes_persist_and_clone_copies() {
        let mut buf = AlignedBuf::<f64>::zeroed(17);
        for (i, x) in buf.iter_mut().enumerate() {
            *x = i as f64;
        }
        let cloned = buf.clone();
        assert_eq!(&cloned[..], &buf[..]);
        assert_eq!(cloned[16], 16.0);
        // Clone is a distinct allocation.
        assert_ne!(cloned.as_ptr(), buf.as_ptr());
    }

    #[test]
    fn alignment_holds_for_many_sizes() {
        for len in [1usize, 2, 3, 15, 16, 17, 63, 64, 65, 4096] {
            let buf = AlignedBuf::<f32>::zeroed(len);
            assert_eq!(buf.as_ptr() as usize % CACHE_LINE, 0, "len={len}");
        }
    }
}
