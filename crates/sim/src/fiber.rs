//! Stackful fibers for the rank runtime.
//!
//! A fiber is a heap-allocated stack plus a saved stack pointer; switching
//! fibers is six callee-saved register pushes, a stack-pointer swap, six
//! pops and a `ret` (System V AMD64). Everything else a resumable rank
//! needs — locals, call frames, pending destructors — already lives on the
//! fiber's own stack, which is what lets the blocking `Rank`/`World` API
//! survive unchanged: a park point is simply a `switch_stacks` back to the
//! scheduler with the rank's whole call chain frozen in place.
//!
//! Scope notes:
//!
//! * x86_64 only, and there is no fallback: the three pieces that name
//!   registers — [`switch_stacks`], `fiber_entry` and [`prepare`]'s
//!   register image — are gated here, their bodies elsewhere refuse, and
//!   `run` refuses before reaching them (one `cfg!` test in
//!   `world::drive`). Everything above them compiles
//!   on every target. The switch saves rbx/rbp/r12–r15/rsp — the SysV
//!   callee-saved set. mxcsr and the x87 control word are not saved:
//!   nothing in this workspace (or in code the simulator can call) changes
//!   rounding modes mid-rank.
//! * Stacks are carved out of large heap blocks ([`StackArena`]) with a
//!   canary word at the low end of each, armed when a world takes the
//!   block and checked on every return to the scheduler. The blocks
//!   commit lazily, so thousands of mostly-idle ranks cost virtual
//!   address space, not resident memory, and a thread keeps a few for its
//!   next world, whose stacks then reuse pages already touched. There is
//!   no guard page; the canary plus a generous default size (1 MiB,
//!   `FLEXIO_SIM_STACK_KB`) stands in.

use std::alloc::{alloc, dealloc, Layout};
use std::cell::{Cell, RefCell};

/// Written at the lowest address of every fiber stack; if a deep call
/// chain runs the stack down this far the scheduler panics instead of
/// silently corrupting the neighbouring allocation any further.
const STACK_CANARY: u64 = 0xf1be_c0de_dead_5afe;

/// A saved execution context: just the stack pointer. All register state
/// lives on the stack it points into.
#[repr(C)]
pub(crate) struct Context {
    pub sp: *mut u8,
}

impl Context {
    /// A context that must never be resumed (placeholder before `prepare`).
    pub fn null() -> Context {
        Context { sp: std::ptr::null_mut() }
    }
}

/// What a newly started fiber runs. The scheduler boxes one `Payload` per
/// rank at a stable address and threads the raw pointer through the
/// initial register image (see [`prepare`]).
pub(crate) struct Payload {
    /// The erased rank body; taken exactly once by `fiber_main`.
    pub run: Option<Box<dyn FnOnce()>>,
    /// Where `fiber_main` switches when the body returns: (slot to save
    /// the dying context into, scheduler context to resume).
    pub final_ctx: (*mut Context, *const Context),
}

/// Save the current context into `*save`, then resume `*restore`.
///
/// # Safety
/// `restore` must hold a stack pointer produced by [`prepare`] or by a
/// previous save through this function, on a stack that is still live.
#[cfg(target_arch = "x86_64")]
#[unsafe(naked)]
pub(crate) unsafe extern "C" fn switch_stacks(save: *mut Context, restore: *const Context) {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, [rsi]",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// What the register-level pieces say on a target they are not written
/// for (`run` refuses such a target before any of them is reached).
#[cfg(not(target_arch = "x86_64"))]
const UNSUPPORTED: &str = "the fiber rank runtime is unsupported on this architecture";

/// See the x86_64 definition.
///
/// # Safety
/// None to uphold: never returns.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) unsafe extern "C" fn switch_stacks(_save: *mut Context, _restore: *const Context) {
    unreachable!("{UNSUPPORTED}")
}

/// First frame of every fiber: the initial register image parks the
/// payload pointer in r12 and this trampoline's address as the `ret`
/// target, so the first `switch_stacks` into the fiber lands here with a
/// 16-byte-aligned stack and the payload in hand.
#[cfg(target_arch = "x86_64")]
#[unsafe(naked)]
unsafe extern "C" fn fiber_entry() {
    core::arch::naked_asm!(
        "mov rdi, r12",
        "call {main}",
        // fiber_main never returns; landing here means a completed fiber
        // was resumed, which is a scheduler bug.
        "ud2",
        main = sym fiber_main,
    )
}

/// Body of every fiber. Runs the payload (which catches unwinds and does
/// all scheduler bookkeeping), then switches to the scheduler forever.
/// Only `fiber_entry`'s assembly names it.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
unsafe extern "C" fn fiber_main(p: *mut Payload) -> ! {
    {
        let payload = unsafe { &mut *p };
        let run = payload.run.take().expect("fiber started twice");
        // `run` is responsible for catching panics; letting one unwind out
        // of this extern "C" frame would abort the process.
        run();
    }
    let (save, host) = unsafe { (*p).final_ctx };
    unsafe { switch_stacks(save, host) };
    // A completed fiber must never be resumed.
    std::process::abort();
}

/// Bytes per block of a [`StackArena`] (64 stacks of the default size).
/// The point of the size: the system allocator serves a block this large
/// as a mapping of its own. glibc raises its mmap threshold as mapped
/// blocks are freed (to 32 MiB at most), so stacks allocated one by one
/// came off the ordinary heap from the second world on; there a finished
/// world's touched stack pages stayed resident, the next world's stacks
/// landed at other offsets and touched other pages, and 512-rank worlds
/// run back to back crept to over 400 MB of resident free heap (20–30 MB
/// of it ever in use at once). A block is never split: a world takes
/// whole blocks, and gives them back whole ([`FREE_BLOCKS`]).
const BLOCK_BYTES: usize = 64 << 20;

/// Blocks a thread keeps for its next world once a world ends: the
/// blocks of 1 008 stacks of the default size, so back-to-back worlds of
/// up to that many ranks map nothing and touch no fresh page, and their
/// stacks sit at the addresses the last world's did. A world that needs
/// more maps the rest and frees what exceeds the cap when it ends, which
/// bounds what an idle thread keeps resident to the stack pages one such
/// world touched.
const FREE_BLOCKS: usize = 16;

fn block_layout() -> Layout {
    Layout::from_size_align(BLOCK_BYTES, 16).expect("fiber stack block layout")
}

/// The blocks a thread keeps between worlds, freed with the thread.
struct FreeBlocks(Vec<*mut u8>);

impl Drop for FreeBlocks {
    fn drop(&mut self) {
        for &base in &self.0 {
            // SAFETY: every kept block came from `alloc(block_layout())`.
            unsafe { dealloc(base, block_layout()) };
        }
    }
}

std::thread_local! {
    static FREE: RefCell<FreeBlocks> = const { RefCell::new(FreeBlocks(Vec::new())) };
    static MAPPED: Cell<u64> = const { Cell::new(0) };
}

/// Fiber-stack blocks this thread has mapped, summed over its worlds: a
/// world that finds enough blocks kept by the last one maps none.
pub fn stack_blocks_mapped() -> u64 {
    MAPPED.with(Cell::get)
}

/// Gap between neighbouring stacks of a block. Without it every stack
/// top sits at the same offset modulo the (power-of-two) stack size, so
/// the hot frames of all parked fibers compete for the same few cache
/// sets — measured on `fine-512`, a flexible repetition was 20 % slower
/// with the stacks packed. 256 B steps spread 512 tops evenly over the
/// 128 KiB an L2 way covers.
const COLOUR_BYTES: usize = 256;

/// The stacks of one scheduler's fibers, carved out of whole
/// [`BLOCK_BYTES`] blocks taken from the thread's kept blocks (or mapped)
/// and given back together.
pub(crate) struct StackArena {
    blocks: Vec<*mut u8>,
    stack_bytes: usize,
    /// Distance between the bases of neighbouring stacks.
    stride: usize,
    per_block: usize,
}

impl StackArena {
    /// Room for `count` stacks of `stack_bytes` each (rounded up to 16 so
    /// every top is aligned, and to 4096 at least, leaving room for the
    /// canary plus the initial register image even under silly env
    /// overrides), a canary written at the low end of each. A stack too
    /// large for a block is refused.
    pub fn new(count: usize, stack_bytes: usize) -> StackArena {
        let stack_bytes = stack_bytes.max(4096).next_multiple_of(16);
        let stride = stack_bytes + COLOUR_BYTES;
        assert!(
            stride <= BLOCK_BYTES,
            "FLEXIO_SIM_STACK_KB: a {stack_bytes}-byte fiber stack does not fit a block"
        );
        let per_block = BLOCK_BYTES / stride;
        let want = count.div_ceil(per_block);
        // The blocks the last world gave back last, in its order: the same
        // stacks at the same addresses.
        let mut blocks = FREE.with(|f| {
            let kept = &mut f.borrow_mut().0;
            kept.split_off(kept.len().saturating_sub(want))
        });
        while blocks.len() < want {
            // SAFETY: the layout has non-zero size.
            let base = unsafe { alloc(block_layout()) };
            assert!(!base.is_null(), "fiber stack allocation failed ({BLOCK_BYTES} bytes)");
            MAPPED.with(|m| m.set(m.get() + 1));
            blocks.push(base);
        }
        let arena = StackArena { blocks, stack_bytes, stride, per_block };
        for i in 0..count {
            // SAFETY: the stack's base is 16-aligned and inside its block.
            unsafe { (arena.stack(i).base as *mut u64).write(STACK_CANARY) };
        }
        arena
    }

    /// Stack `i`. The window is only valid while the arena lives.
    pub fn stack(&self, i: usize) -> FiberStack {
        let block = self.blocks[i / self.per_block];
        // SAFETY: block `i / per_block` holds `per_block` stacks.
        let base = unsafe { block.add(i % self.per_block * self.stride) };
        FiberStack { base, size: self.stack_bytes }
    }

    /// The address ranges of the arena's blocks.
    #[cfg(test)]
    pub fn blocks(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        self.blocks.iter().map(|&b| b as usize..b as usize + BLOCK_BYTES)
    }
}

impl Drop for StackArena {
    fn drop(&mut self) {
        let blocks = std::mem::take(&mut self.blocks);
        // A thread that is exiting has no list left to keep them in.
        let spill = FREE
            .try_with(|f| {
                let kept = &mut f.borrow_mut().0;
                let room = FREE_BLOCKS.saturating_sub(kept.len()).min(blocks.len());
                kept.extend_from_slice(&blocks[..room]);
                blocks[room..].to_vec()
            })
            .unwrap_or(blocks);
        for base in spill {
            // SAFETY: every block of an arena came from `alloc(block_layout())`.
            unsafe { dealloc(base, block_layout()) };
        }
    }
}

/// One fiber's stack: a 16-aligned window of a [`StackArena`] block,
/// canary at the low end.
#[derive(Clone, Copy)]
pub(crate) struct FiberStack {
    base: *mut u8,
    size: usize,
}

impl FiberStack {
    /// False once a deep call chain has run the stack down to its lowest
    /// word — the best overflow detection available without guard pages.
    pub fn canary_ok(&self) -> bool {
        // SAFETY: base is live (the arena outlives its scheduler's slots)
        // and holds the canary written in `StackArena::new`.
        unsafe { (self.base as *const u64).read() == STACK_CANARY }
    }

    /// What a call chain that ran the stack down to its lowest word leaves
    /// there.
    #[cfg(test)]
    pub fn clobber_canary(&self) {
        // SAFETY: as in `canary_ok`; the canary word belongs to no frame.
        unsafe { (self.base as *mut u64).write(0) }
    }
}

/// Build the initial context for a fresh fiber on `stack`: the first
/// switch into it `ret`s to `fiber_entry` with `payload` in r12.
pub(crate) fn prepare(stack: &FiberStack, payload: *mut Payload) -> Context {
    // SAFETY: one past the end of the stack's window of its arena block.
    let top = unsafe { stack.base.add(stack.size) };
    debug_assert_eq!(top as usize % 16, 0);
    // SAFETY: `top` is the 16-aligned top of a live stack of at least
    // 4096 bytes (`StackArena::new`), nothing on it yet.
    unsafe { register_image(top, payload) }
}

/// The register image of a fresh fiber whose stack ends at `top`,
/// ascending from the saved stack pointer, matching the pop order in
/// [`switch_stacks`]: r15 r14 r13 r12 rbx rbp ret. The ret slot sits at
/// top-8 so `fiber_entry` starts 16-aligned.
///
/// # Safety
/// `top` is 16-aligned with 56 writable bytes below it.
#[cfg(target_arch = "x86_64")]
unsafe fn register_image(top: *mut u8, payload: *mut Payload) -> Context {
    unsafe {
        let sp = top.sub(7 * 8) as *mut u64;
        sp.add(0).write(0); // r15
        sp.add(1).write(0); // r14
        sp.add(2).write(0); // r13
        sp.add(3).write(payload as u64); // r12 -> fiber_entry's rdi
        sp.add(4).write(0); // rbx
        sp.add(5).write(0); // rbp
        sp.add(6).write(fiber_entry as *const () as usize as u64); // ret target
        Context { sp: sp as *mut u8 }
    }
}

/// See the x86_64 definition.
///
/// # Safety
/// None to uphold: never returns.
#[cfg(not(target_arch = "x86_64"))]
unsafe fn register_image(_top: *mut u8, _payload: *mut Payload) -> Context {
    unreachable!("{UNSUPPORTED}")
}
