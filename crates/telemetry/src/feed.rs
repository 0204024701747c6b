//! The writer thread: how a record gets from the thread that emits it to
//! the sinks.
//!
//! An enabled collector with a sink runs its sinks — the JSONL
//! [`TraceWriter`](crate::TraceWriter), the ring and the tap — on one
//! thread of their own. The emitting thread stamps a record under the
//! collector lock as before and then appends a compact copy of it to a
//! [`Batch`]; a full batch is handed to the writer thread, which decodes
//! its records, in order, back into the same borrowed [`RecordRef`]s and
//! feeds them to the sinks. The sinks therefore see exactly the stream
//! they saw when they ran on the emitting thread, only later.
//!
//! A batch is a word stream plus the text it refers to:
//!
//! * a span's name goes by its id in the collector's name table, and a
//!   field key by an id the feed gives the key on first sight. The batch
//!   that first uses a name or a key also carries its text, and the writer
//!   learns it before it decodes that batch's records;
//! * an event's name and a string value are copied into the batch's
//!   `String`, so the writer slices them out again without checking them
//!   as UTF-8 a second time.
//!
//! A read of what a sink holds is a *drain*: the partial batch is handed
//! over and the reader waits until the writer has finished every batch
//! handed over so far. [`Feed::drain`] is that wait. The batches, the
//! queue and the writer's tables are made when the collector is built, so
//! emitting on known ground allocates nothing on either thread.
//!
//! A panic on the writer thread (a tap or a sink) ends the thread. It is
//! kept and resumed on the emitting side at the next drain, or when the
//! collector is dropped; a drain never waits on a dead writer, and the
//! records emitted after the panic are dropped.

use std::any::Any;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};

use crate::record::{Field, FieldBuf, RecordRef, ValueRef};
use crate::{lock, Sinks};

/// Batches a feed cycles through: one being filled, the rest queued or
/// being written.
const BATCHES: usize = 4;

/// A batch's words and text, made at build. It is handed over once
/// either is half used, so a record grows a buffer only when it alone is
/// larger than half of it.
const WORDS: usize = 1 << 13;
const TEXT: usize = 1 << 15;

/// Text that claims a batch's text buffer (see [`Batch::claim`]).
const PAD: &str = match std::str::from_utf8(&[0; 4096]) {
    Ok(pad) => pad,
    Err(_) => panic!("zero bytes are UTF-8"),
};

/// What a word stream entry is: the low four bits of its head word.
const META: u64 = 0;
const SPAN_START: u64 = 1;
const SPAN_END: u64 = 2;
const EVENT: u64 = 3;

/// Set in a head word when the span start has a parent, or the event a
/// span.
const LINKED: u64 = 1 << 4;

/// A field's value type: the low byte of its first word.
const BOOL: u64 = 0;
const U64: u64 = 1;
const I64: u64 = 2;
const F64: u64 = 3;
const STR: u64 = 4;

/// Records on their way to the writer thread (see the module docs).
///
/// The head word of a record is its kind, [`LINKED`], its field count in
/// bits 8..32 and, for a span, its name id in the high half; then come
/// the record's numbers, then two words a field: the key id over the
/// value type, and the value. A string is a word holding its offset into
/// `text` over its length.
struct Batch {
    words: Vec<u64>,
    text: String,
    /// Span names and field keys this batch defines, in id order, as text
    /// references.
    new_names: Vec<u64>,
    new_keys: Vec<u64>,
}

impl Batch {
    fn new() -> Self {
        Batch {
            words: Vec::with_capacity(WORDS),
            text: String::with_capacity(TEXT),
            new_names: Vec::with_capacity(64),
            new_keys: Vec::with_capacity(64),
        }
    }

    fn is_empty(&self) -> bool {
        self.words.is_empty() && self.new_names.is_empty() && self.new_keys.is_empty()
    }

    fn is_full(&self) -> bool {
        self.words.len() >= WORDS / 2 || self.text.len() >= TEXT / 2
    }

    fn clear(&mut self) {
        self.words.clear();
        self.text.clear();
        self.new_names.clear();
        self.new_keys.clear();
    }

    /// Writes over the part of the (empty) batch the next records will
    /// fill, in one sweep. The writer thread has read these cache lines,
    /// so each is shared with its core, and the first store to one must
    /// first take it back: one such store every few records, in between
    /// the emitting thread's own work, stalls it for the round trip each
    /// time (≈ 40 ns a record on a 2-vCPU Xeon VM), where a sweep
    /// overlaps the round trips and costs a few nanoseconds a line.
    fn claim(&mut self) {
        self.words.resize(WORDS / 2 + 64, 0);
        self.words.clear();
        while self.text.len() < TEXT / 2 + PAD.len() {
            self.text.push_str(PAD);
        }
        self.text.clear();
    }

    /// Copies `s` in; the word that finds it again.
    #[inline]
    fn push_text(&mut self, s: &str) -> u64 {
        let at = self.text.len();
        self.text.push_str(s);
        let len = u32::try_from(s.len()).expect("a trace string under 4 GiB");
        (u64::try_from(at).expect("a batch under 4 GiB") << 32) | u64::from(len)
    }

    /// The text `word` refers to.
    #[inline]
    fn text(&self, word: u64) -> &str {
        let at = (word >> 32) as usize;
        &self.text[at..at + (word as u32) as usize]
    }
}

/// Head word of a record.
#[inline]
fn head(kind: u64, linked: bool, fields: usize, high: u32) -> u64 {
    let fields = u32::try_from(fields).ok().filter(|&n| n < 1 << 24).expect("under 2^24 fields");
    kind | if linked { LINKED } else { 0 } | (u64::from(fields) << 8) | (u64::from(high) << 32)
}

/// Field keys by address. Keys reach the feed only through the builders'
/// `field`, which takes a `&'static str`, so a key's address and length
/// name it for as long as the process runs; looking one up hashes no
/// text. An owned key (none is emitted today) gets a fresh id each time.
struct Keys {
    /// Open addressing, linear probing: `(address, length, id)`, id
    /// [`Keys::EMPTY`] for a free slot.
    slots: Vec<(usize, usize, u32)>,
    used: usize,
    /// Ids given so far.
    next: u32,
}

impl Keys {
    const EMPTY: u32 = u32::MAX;

    fn with_slots(n: usize) -> Self {
        Keys { slots: vec![(0, 0, Self::EMPTY); n], used: 0, next: 0 }
    }

    #[inline]
    fn slot(&self, addr: usize) -> usize {
        // Fibonacci hashing: the multiply spreads nearby addresses.
        let bits = self.slots.len().trailing_zeros();
        ((addr as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// The id of the borrowed key `key`, defined in `batch` on first
    /// sight.
    #[inline]
    fn id(&mut self, key: &str, batch: &mut Batch) -> u32 {
        let addr = key.as_ptr() as usize;
        let mask = self.slots.len() - 1;
        let mut at = self.slot(addr);
        loop {
            let (a, len, id) = self.slots[at];
            if id == Self::EMPTY {
                break;
            }
            if a == addr && len == key.len() {
                return id;
            }
            at = (at + 1) & mask;
        }
        let id = self.define(key, batch);
        self.slots[at] = (addr, key.len(), id);
        self.used += 1;
        if 2 * self.used > self.slots.len() {
            self.grow();
        }
        id
    }

    /// A new id for `key`, defined in `batch`.
    #[cold]
    fn define(&mut self, key: &str, batch: &mut Batch) -> u32 {
        let word = batch.push_text(key);
        batch.new_keys.push(word);
        let id = self.next;
        self.next = id.checked_add(1).filter(|&n| n != Self::EMPTY).expect("under 2^32 keys");
        id
    }

    #[cold]
    fn grow(&mut self) {
        let wider = vec![(0, 0, Self::EMPTY); 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, wider);
        let mask = self.slots.len() - 1;
        for (addr, len, id) in old.into_iter().filter(|s| s.2 != Self::EMPTY) {
            let mut at = self.slot(addr);
            while self.slots[at].2 != Self::EMPTY {
                at = (at + 1) & mask;
            }
            self.slots[at] = (addr, len, id);
        }
    }
}

/// Strings by id, on the writer's side: span names and field keys as the
/// batches define them.
struct Dict {
    text: String,
    /// Where each string ends in `text`.
    ends: Vec<usize>,
}

impl Dict {
    fn with_capacity(strings: usize, bytes: usize) -> Self {
        Dict { text: String::with_capacity(bytes), ends: Vec::with_capacity(strings) }
    }

    fn push(&mut self, s: &str) {
        self.text.push_str(s);
        self.ends.push(self.text.len());
    }

    #[inline]
    fn get(&self, id: usize) -> &str {
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        &self.text[start..self.ends[id]]
    }
}

/// The hand-over between the emitting side and the writer thread.
struct Queue {
    /// Batches handed over, oldest first.
    full: VecDeque<Batch>,
    /// Written batches, emptied, to be filled again.
    free: Vec<Batch>,
    /// Batches handed over, and batches the writer has finished.
    sent: u64,
    done: u64,
    /// No more batches will come: the writer finishes the queue and ends.
    closed: bool,
    /// The writer thread has ended; `panic` is why, until someone takes it.
    dead: bool,
    panic: Option<Box<dyn Any + Send>>,
}

/// What the emitting side and the writer thread share.
struct Shared {
    queue: Mutex<Queue>,
    /// Signalled when a batch is handed over or the feed closes.
    work: Condvar,
    /// Signalled when a batch is finished or the writer ends.
    finished: Condvar,
    sinks: Mutex<Sinks>,
}

fn wait<'a>(cv: &Condvar, guard: MutexGuard<'a, Queue>) -> MutexGuard<'a, Queue> {
    cv.wait(guard).unwrap_or_else(|e| e.into_inner())
}

/// The emitting side of a collector's writer thread: the batch being
/// filled and what it needs to encode records. It lives under the
/// collector lock.
pub(crate) struct Feed {
    shared: Arc<Shared>,
    batch: Batch,
    keys: Keys,
    /// Span names `0..names_sent` have been defined to the writer.
    names_sent: usize,
    writer: Option<JoinHandle<()>>,
}

impl Feed {
    /// Starts the writer thread over `sinks`.
    pub(crate) fn start(sinks: Sinks) -> Feed {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                full: VecDeque::with_capacity(BATCHES),
                free: (1..BATCHES).map(|_| Batch::new()).collect(),
                sent: 0,
                done: 0,
                closed: false,
                dead: false,
                panic: None,
            }),
            work: Condvar::new(),
            finished: Condvar::new(),
            sinks: Mutex::new(sinks),
        });
        let theirs = Arc::clone(&shared);
        let writer = thread::Builder::new()
            .name("trace-writer".into())
            .spawn(move || write_batches(&theirs))
            .expect("start the trace writer thread");
        Feed {
            shared,
            batch: Batch::new(),
            keys: Keys::with_slots(256),
            names_sent: 0,
            writer: Some(writer),
        }
    }

    /// The sinks, for a reader that has drained the feed.
    pub(crate) fn sinks(&self) -> MutexGuard<'_, Sinks> {
        lock(&self.shared.sinks)
    }

    pub(crate) fn meta(&mut self, schema: u32, clock: &str, t: u64) {
        let clock = self.batch.push_text(clock);
        self.batch.words.extend_from_slice(&[head(META, false, 0, schema), t, clock]);
        self.maybe_hand_over();
    }

    /// A span start; `name` is its id in `names`, the collector's table.
    #[inline]
    pub(crate) fn span_start(
        &mut self,
        names: &[Box<str>],
        id: u64,
        parent: Option<u64>,
        name: u32,
        t: u64,
        fields: &[Field<'_>],
    ) {
        self.define_names(names, name);
        let head = head(SPAN_START, parent.is_some(), fields.len(), name);
        self.batch.words.extend_from_slice(&[head, id, parent.unwrap_or(0), t]);
        self.fields(fields);
        self.maybe_hand_over();
    }

    #[inline]
    pub(crate) fn span_end(&mut self, names: &[Box<str>], id: u64, name: u32, t: u64, dur_ns: u64) {
        self.define_names(names, name);
        self.batch.words.extend_from_slice(&[head(SPAN_END, false, 0, name), id, t, dur_ns]);
        self.maybe_hand_over();
    }

    #[inline]
    pub(crate) fn event(&mut self, span: Option<u64>, name: &str, t: u64, fields: &[Field<'_>]) {
        let name = self.batch.push_text(name);
        let head = head(EVENT, span.is_some(), fields.len(), 0);
        self.batch.words.extend_from_slice(&[head, span.unwrap_or(0), t, name]);
        self.fields(fields);
        self.maybe_hand_over();
    }

    #[inline]
    fn define_names(&mut self, names: &[Box<str>], upto: u32) {
        while self.names_sent <= upto as usize {
            let word = self.batch.push_text(&names[self.names_sent]);
            self.batch.new_names.push(word);
            self.names_sent += 1;
        }
    }

    #[inline]
    fn fields(&mut self, fields: &[Field<'_>]) {
        for (key, value) in fields {
            let key = match key {
                Cow::Borrowed(key) => self.keys.id(key, &mut self.batch),
                Cow::Owned(key) => self.keys.define(key, &mut self.batch),
            };
            let key = u64::from(key) << 8;
            let (kind, bits) = match value {
                ValueRef::Bool(b) => (BOOL, u64::from(*b)),
                ValueRef::U64(v) => (U64, *v),
                ValueRef::I64(v) => (I64, *v as u64),
                ValueRef::F64(v) => (F64, v.to_bits()),
                ValueRef::Str(s) => (STR, self.batch.push_text(s)),
            };
            self.batch.words.extend_from_slice(&[key | kind, bits]);
        }
    }

    #[inline]
    fn maybe_hand_over(&mut self) {
        if self.batch.is_full() {
            self.hand_over();
        }
    }

    /// Hands the batch being filled to the writer and takes an empty one,
    /// waiting for one if the writer is behind. Once the writer is dead
    /// the batch is emptied instead: nobody would write it.
    fn hand_over(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let mut queue = lock(&self.shared.queue);
        let next = loop {
            if queue.dead {
                self.batch.clear();
                return;
            }
            if let Some(batch) = queue.free.pop() {
                break batch;
            }
            queue = wait(&self.shared.finished, queue);
        };
        queue.full.push_back(std::mem::replace(&mut self.batch, next));
        queue.sent += 1;
        drop(queue);
        self.shared.work.notify_one();
        self.batch.claim();
    }

    /// Waits until the sinks have seen every record emitted so far. If
    /// the writer died, its panic is resumed here — once, and not while
    /// this thread is already unwinding.
    pub(crate) fn drain(&mut self) {
        self.hand_over();
        let mut queue = lock(&self.shared.queue);
        while queue.done < queue.sent && !queue.dead {
            queue = wait(&self.shared.finished, queue);
        }
        let panic = queue.panic.take();
        drop(queue);
        if let Some(panic) = panic.filter(|_| !thread::panicking()) {
            panic::resume_unwind(panic);
        }
    }
}

impl Drop for Feed {
    /// Hands over what is left, lets the writer finish it and joins the
    /// thread; the sinks are dropped with the last handle on them, after
    /// the join.
    fn drop(&mut self) {
        self.hand_over();
        lock(&self.shared.queue).closed = true;
        self.shared.work.notify_one();
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
        let panic = lock(&self.shared.queue).panic.take();
        if let Some(panic) = panic.filter(|_| !thread::panicking()) {
            panic::resume_unwind(panic);
        }
    }
}

/// The writer thread: batches in, records out, until the feed closes or
/// a sink panics.
fn write_batches(shared: &Shared) {
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        let mut names = Dict::with_capacity(512, 16 << 10);
        let mut keys = Dict::with_capacity(512, 8 << 10);
        loop {
            let mut batch = {
                let mut queue = lock(&shared.queue);
                loop {
                    if let Some(batch) = queue.full.pop_front() {
                        break batch;
                    }
                    if queue.closed {
                        return;
                    }
                    queue = wait(&shared.work, queue);
                }
            };
            for &word in &batch.new_names {
                names.push(batch.text(word));
            }
            for &word in &batch.new_keys {
                keys.push(batch.text(word));
            }
            feed_sinks(&batch, &names, &keys, &mut lock(&shared.sinks));
            batch.clear();
            let mut queue = lock(&shared.queue);
            queue.free.push(batch);
            queue.done += 1;
            drop(queue);
            shared.finished.notify_all();
        }
    }));
    let mut queue = lock(&shared.queue);
    queue.dead = true;
    queue.panic = outcome.err();
    drop(queue);
    shared.finished.notify_all();
}

/// Decodes `batch`'s records, in order, and hands each to the sinks.
fn feed_sinks(batch: &Batch, names: &Dict, keys: &Dict, sinks: &mut Sinks) {
    let mut fields = FieldBuf::default();
    let words = &batch.words[..];
    let mut at = 0;
    while at < words.len() {
        let head = words[at];
        let linked = head & LINKED != 0;
        let n = ((head >> 8) & 0xFF_FFFF) as usize;
        let high = (head >> 32) as u32;
        let body = &words[at + 1..];
        let (len, rec) = match head & 0xF {
            META => (3, RecordRef::Meta { schema: high, clock: batch.text(body[1]), t: body[0] }),
            SPAN_END => {
                let name = names.get(high as usize);
                let (id, t, dur_ns) = (body[0], body[1], body[2]);
                (4, RecordRef::SpanEnd { id, name, t, dur_ns, fields: &[] })
            }
            kind => {
                decode_fields(&body[3..3 + 2 * n], batch, keys, &mut fields);
                let fields = fields.as_slice();
                let rec = if kind == SPAN_START {
                    let parent = linked.then_some(body[1]);
                    let name = names.get(high as usize);
                    RecordRef::SpanStart { id: body[0], parent, name, t: body[2], fields }
                } else {
                    let span = linked.then_some(body[0]);
                    RecordRef::Event { span, name: batch.text(body[2]), t: body[1], fields }
                };
                (4 + 2 * n, rec)
            }
        };
        sinks.emit(&rec);
        at += len;
    }
}

fn decode_fields<'b>(words: &[u64], batch: &'b Batch, keys: &'b Dict, out: &mut FieldBuf<'b>) {
    out.clear();
    for pair in words.chunks_exact(2) {
        let key = Cow::Borrowed(keys.get((pair[0] >> 8) as usize));
        let bits = pair[1];
        let value = match pair[0] & 0xFF {
            BOOL => ValueRef::Bool(bits != 0),
            U64 => ValueRef::U64(bits),
            I64 => ValueRef::I64(bits as i64),
            F64 => ValueRef::F64(f64::from_bits(bits)),
            STR => ValueRef::Str(Cow::Borrowed(batch.text(bits))),
            kind => unreachable!("the feed writes no value type {kind}"),
        };
        out.push(key, value);
    }
}
