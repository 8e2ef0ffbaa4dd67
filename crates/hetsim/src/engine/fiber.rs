//! Stackful fibers: the execution vehicle of a simulated process.
//!
//! A fiber is a [`Stack`] (an mmap'd region with a `PROT_NONE` guard page
//! below it) plus a saved stack pointer. [`Fiber::resume`] switches from
//! the caller's stack onto the fiber's; the fiber runs until it calls
//! [`suspend`] or its entry closure returns, and either switches back.
//! A switch saves the SysV callee-saved state (rbx, rbp, r12–r15, MXCSR,
//! the x87 control word) on the old stack, swaps rsp and restores the same
//! state from the new one: about 20 instructions, no system call.
//!
//! Every `unsafe` operation of the engine lives here. The invariants they
//! rely on are kept by this module alone:
//! - a fiber's stack stays mapped while any frame on it may still run, so a
//!   fiber dropped in the middle of its entry closure leaks its stack;
//! - only the resumer of a running fiber can be switched back to, because
//!   [`suspend`] reads the running fiber from a thread-local that
//!   [`Fiber::resume`] sets for exactly that span;
//! - no unwind crosses a stack boundary: the entry closure is called from an
//!   `extern "C"` function, so a panic escaping it aborts the process.

#![deny(clippy::undocumented_unsafe_blocks, unsafe_op_in_unsafe_fn)]

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!("hetsim's engine/fiber.rs implements fiber switching for x86-64 Linux only");

use std::cell::Cell;
use std::ffi::{c_int, c_void};
use std::io;
use std::ptr::{self, NonNull};

use super::ResumeReason;

/// The x86-64 base page: the guard size and the mapping granule.
const PAGE: usize = 4096;

/// Bytes of the frame [`Fiber::new`] builds for the first switch: the
/// MXCSR/x87 word, six callee-saved registers and the return address into
/// `hetsim_fiber_start`, above which 16 zero bytes keep rsp 16-aligned.
const START_FRAME: usize = 80;

/// The power-on MXCSR (all exceptions masked, round to nearest) and x87
/// control word (64-bit precision, all exceptions masked).
const MXCSR_DEFAULT: usize = 0x1f80;
const FPU_CW_DEFAULT: usize = 0x037f;

const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_NORESERVE: c_int = 0x4000;
const MAP_STACK: c_int = 0x20000;
const MAP_FAILED: *mut c_void = !0 as *mut c_void;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;

    /// Saves the callee-saved state on the current stack, stores rsp to
    /// `*save`, then loads rsp from `load` and restores the state saved
    /// there. Returns when something switches back to `*save`.
    fn hetsim_fiber_switch(save: *mut *mut u8, load: *mut u8);
    /// First code a new fiber runs: calls `r12(rbx)`, which never returns.
    fn hetsim_fiber_start();
}

std::arch::global_asm!(
    ".text",
    ".p2align 4",
    ".globl hetsim_fiber_switch",
    ".hidden hetsim_fiber_switch",
    ".type hetsim_fiber_switch, @function",
    "hetsim_fiber_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "sub rsp, 8",
    "stmxcsr dword ptr [rsp]",
    "fnstcw word ptr [rsp + 4]",
    "mov [rdi], rsp",
    "mov rsp, rsi",
    "ldmxcsr dword ptr [rsp]",
    "fldcw word ptr [rsp + 4]",
    "add rsp, 8",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    ".size hetsim_fiber_switch, . - hetsim_fiber_switch",
    "",
    ".p2align 4",
    ".globl hetsim_fiber_start",
    ".hidden hetsim_fiber_start",
    ".type hetsim_fiber_start, @function",
    "hetsim_fiber_start:",
    // No caller: unwinders and backtraces stop here.
    ".cfi_startproc",
    ".cfi_undefined rip",
    "mov rdi, rbx",
    "call r12",
    "ud2",
    ".cfi_endproc",
    ".size hetsim_fiber_start, . - hetsim_fiber_start",
);

thread_local! {
    /// The fiber running on this thread, null on a thread's own stack.
    static CURRENT: Cell<*const Control> = const { Cell::new(ptr::null()) };
}

#[cfg(test)]
thread_local! {
    /// Stacks mapped and not yet unmapped by this thread.
    static MAPPED: Cell<usize> = const { Cell::new(0) };
}

/// Stacks this thread has mapped and not unmapped (a leak detector).
#[cfg(test)]
pub(crate) fn mapped_stacks() -> usize {
    MAPPED.get()
}

/// A fiber stack: an anonymous, lazily committed mapping whose lowest page
/// is a `PROT_NONE` guard, so an overflow faults instead of corrupting the
/// memory below.
pub(crate) struct Stack {
    base: NonNull<u8>,
    len: usize,
}

// SAFETY: a `Stack` owns its mapping exclusively, like a `Box<[u8]>`; no
// other value points into it until a `Fiber` takes it over, and `Fiber`
// is not `Send`.
unsafe impl Send for Stack {}

impl Stack {
    /// Maps a stack with at least `size` usable bytes above its guard page.
    ///
    /// # Errors
    ///
    /// The OS error when the mapping or its guard cannot be made.
    pub(crate) fn new(size: usize) -> io::Result<Stack> {
        let too_big = || io::Error::from(io::ErrorKind::OutOfMemory);
        let usable = size.max(START_FRAME).checked_next_multiple_of(PAGE).ok_or_else(too_big)?;
        let len = usable.checked_add(PAGE).ok_or_else(too_big)?;
        let flags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK;
        // SAFETY: an anonymous mapping at an address of the kernel's choice
        // aliases no existing memory.
        let addr = unsafe { mmap(ptr::null_mut(), len, PROT_READ | PROT_WRITE, flags, -1, 0) };
        if addr == MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        let stack = Stack { base: NonNull::new(addr.cast()).expect("mmap never maps page 0"), len };
        #[cfg(test)]
        MAPPED.set(MAPPED.get() + 1);
        // SAFETY: the first page lies inside the mapping just made, which
        // nothing uses yet.
        if unsafe { mprotect(addr, PAGE, PROT_NONE) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(stack)
    }

    /// One past the highest usable byte (page-aligned, so 16-aligned).
    fn top(&self) -> *mut u8 {
        self.base.as_ptr().wrapping_add(self.len)
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base..base + len` is the mapping `new` made, and the
        // `Stack` is dropped only when no frame on it can run again. Unmapping
        // a whole mapping of our own cannot fail.
        unsafe { munmap(self.base.as_ptr().cast(), self.len) };
        #[cfg(test)]
        MAPPED.set(MAPPED.get().saturating_sub(1));
    }
}

/// What the two sides of a switch share. Boxed, so its address survives
/// moves of the [`Fiber`] that owns it.
struct Control {
    /// The fiber's stack pointer while it is suspended.
    sp: Cell<*mut u8>,
    /// The resumer's stack pointer while the fiber runs.
    resumer: Cell<*mut u8>,
    /// The reason passed by the latest `resume`.
    reason: Cell<ResumeReason>,
    /// The entry closure, until the fiber first runs.
    entry: Cell<Option<Box<dyn FnOnce()>>>,
    /// The entry closure has returned.
    finished: Cell<bool>,
}

/// A user-space thread of control on its own [`Stack`].
///
/// Not `Send`: frames on a fiber's stack may hold the address of this
/// thread's thread-locals, so a fiber only ever runs on the thread that
/// created it.
pub(crate) struct Fiber {
    control: Box<Control>,
    /// `None` once leaked.
    stack: Option<Stack>,
}

impl Fiber {
    /// A fiber that runs `entry` on `stack` when first resumed.
    pub(crate) fn new(stack: Stack, entry: Box<dyn FnOnce()>) -> Fiber {
        let control = Box::new(Control {
            sp: Cell::new(ptr::null_mut()),
            resumer: Cell::new(ptr::null_mut()),
            reason: Cell::new(ResumeReason::Start),
            entry: Cell::new(Some(entry)),
            finished: Cell::new(false),
        });
        let frame: [usize; START_FRAME / 8] = [
            MXCSR_DEFAULT | (FPU_CW_DEFAULT << 32),
            0,                                           // r15
            0,                                           // r14
            0,                                           // r13
            fiber_main as *const () as usize,            // r12: called by the trampoline
            ptr::from_ref::<Control>(&control) as usize, // rbx: its argument
            0,                                           // rbp
            hetsim_fiber_start as *const () as usize,    // return address of the first switch
            0,
            0,
        ];
        let sp = stack.top().wrapping_sub(START_FRAME);
        // SAFETY: `Stack::new` maps at least `START_FRAME` writable bytes
        // below `top`, and `top` is page-aligned, so `sp` is 16-aligned.
        unsafe { sp.cast::<[usize; START_FRAME / 8]>().write(frame) };
        control.sp.set(sp);
        Fiber { control, stack: Some(stack) }
    }

    /// Runs the fiber until it suspends or its entry closure returns;
    /// [`suspend`] inside the fiber returns `reason`. Returns whether the
    /// entry closure has returned.
    ///
    /// # Panics
    ///
    /// If the fiber has already finished.
    pub(crate) fn resume(&mut self, reason: ResumeReason) -> bool {
        let control: &Control = &self.control;
        assert!(!control.finished.get(), "resumed a finished fiber");
        control.reason.set(reason);
        let outer = CURRENT.replace(control);
        // SAFETY: `sp` is the frame built by `new` or saved by the fiber's
        // last `suspend`, on the stack `self` owns and keeps mapped. The
        // fiber is not running: that would need a second `&mut self`.
        // `resumer` points into the live `Control`.
        unsafe { hetsim_fiber_switch(control.resumer.as_ptr(), control.sp.get()) };
        CURRENT.set(outer);
        control.finished.get()
    }
}

impl Drop for Fiber {
    fn drop(&mut self) {
        let started = self.control.entry.take().is_none();
        if started && !self.control.finished.get() {
            // Frames of the suspended entry closure are still on the stack
            // and may be borrowed from elsewhere: never unmap it.
            std::mem::forget(self.stack.take());
        }
    }
}

/// Suspends the running fiber and switches back to its resumer. Returns the
/// reason passed to the [`Fiber::resume`] that continues it.
///
/// # Panics
///
/// When no fiber is running on this thread.
pub(crate) fn suspend() -> ResumeReason {
    let control = CURRENT.get();
    assert!(!control.is_null(), "fiber::suspend outside a fiber");
    // SAFETY: `CURRENT` is non-null only while `Fiber::resume` runs this
    // fiber, and that call borrows the fiber, whose boxed `Control` stays
    // put, until the switch below returns to it.
    let control = unsafe { &*control };
    // SAFETY: `resumer` is the frame `resume` saved on its caller's live
    // stack; `sp` points into the live `Control`.
    unsafe { hetsim_fiber_switch(control.sp.as_ptr(), control.resumer.get()) };
    control.reason.get()
}

/// The base of every fiber's stack, entered from `hetsim_fiber_start`.
///
/// `extern "C"` cannot unwind: a panic escaping the entry closure aborts
/// here instead of running into the trampoline.
extern "C" fn fiber_main(control: *const Control) -> ! {
    // SAFETY: `Fiber::new` put the address of the fiber's boxed `Control` in
    // rbx, and the box outlives every run of the fiber.
    let control = unsafe { &*control };
    if let Some(entry) = control.entry.take() {
        entry();
    }
    control.finished.set(true);
    // SAFETY: as in `suspend`. Nothing on this stack runs again.
    unsafe { hetsim_fiber_switch(control.sp.as_ptr(), control.resumer.get()) };
    unreachable!("a finished fiber was resumed");
}
