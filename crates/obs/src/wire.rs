//! The trace wire format: the one codec between [`TraceEvent`]s and the
//! JSON Lines the recorder writes and `slsb trace` reads.
//!
//! An event is one JSON object,
//! `{"at":<µs>,"kind":{"event":"<tag>",<fields>}}`, with the variant's
//! fields in declaration order, times and durations as integer
//! microseconds, enum values as snake_case strings and the absent
//! component of a client-path fault as `null`. [`write_event`] emits
//! exactly that. [`parse_event`] accepts more: keys in any order, any JSON
//! whitespace, unknown keys with any well-formed value, duplicate keys (the
//! first wins) and `\u`-escaped strings. It rejects a missing field, a
//! value of the wrong type, a negative or fractional value in an unsigned
//! field, a `client` or `app` beyond `u32`, an unknown tag or enum value,
//! and arrays or objects nested deeper than [`MAX_DEPTH`]. The parser
//! allocates only to report an error; the writer only grows its output.

use crate::event::{Component, EventKind, FaultKind, SpanOutcome, SpawnCause, TraceEvent};
use slsb_sim::{SimDuration, SimTime};
use std::fmt;

/// The deepest nesting of arrays and objects a line may hold, the event
/// object itself included (the vendored `serde_json`'s limit too).
pub const MAX_DEPTH: usize = 128;

/// Why a line is not a trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Not well-formed JSON: `expected` was wanted at byte `at`.
    Syntax {
        /// Byte offset into the line.
        at: usize,
        /// What the parser wanted there.
        expected: &'static str,
    },
    /// A number the JSON grammar of this format cannot represent (an
    /// integer beyond 64 bits, or a malformed float), starting at byte `at`.
    Number {
        /// Byte offset into the line.
        at: usize,
    },
    /// Arrays and objects nested deeper than [`MAX_DEPTH`]; `at` is the
    /// offset of the bracket that opens one level too many.
    TooDeep {
        /// Byte offset into the line.
        at: usize,
    },
    /// A field the event needs is absent.
    Missing {
        /// The field's key.
        field: &'static str,
    },
    /// A field holds the wrong type or an out-of-range number.
    Invalid {
        /// The field's key.
        field: &'static str,
        /// What the field must hold.
        expected: &'static str,
    },
    /// A string that names no value of the field's enum.
    Unknown {
        /// The field's key.
        field: &'static str,
        /// The string, unescaped.
        name: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Syntax { at, expected } => write!(f, "expected {expected} at byte {at}"),
            WireError::Number { at } => write!(f, "invalid number at byte {at}"),
            WireError::TooDeep { at } => {
                write!(f, "nesting deeper than {MAX_DEPTH} at byte {at}")
            }
            WireError::Missing { field } => write!(f, "missing field `{field}`"),
            WireError::Invalid { field, expected } => write!(f, "`{field}` must be {expected}"),
            WireError::Unknown { field, name } => write!(f, "unknown `{field}` value {name:?}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------- schema

/// A fieldless enum carried on the wire as a string.
trait WireName: Copy + 'static {
    /// Every value with its wire name, in declaration order, so that a
    /// value's discriminant indexes its own entry. Both directions read
    /// this table; it is the only place the names are spelled.
    const NAMES: &'static [(Self, &'static str)];

    /// The value's position in [`WireName::NAMES`].
    fn index(self) -> usize;
}

macro_rules! wire_names {
    ($ty:ident { $($value:ident => $name:literal,)+ }) => {
        impl WireName for $ty {
            const NAMES: &'static [(Self, &'static str)] = &[$(($ty::$value, $name),)+];

            fn index(self) -> usize {
                self as usize
            }
        }
    };
}

// `managed_ml` is the wire name; `Component::label` is `managed-ml`.
wire_names!(Component {
    Serverless => "serverless",
    ManagedMl => "managed_ml",
    Vm => "vm",
});

wire_names!(SpawnCause {
    Demand => "demand",
    Overprovision => "overprovision",
    Provisioned => "provisioned",
});

wire_names!(SpanOutcome {
    Success => "success",
    QueueFull => "queue_full",
    ClientTimeout => "client_timeout",
    Rejected => "rejected",
    Throttled => "throttled",
    Crashed => "crashed",
    RetriesExhausted => "retries_exhausted",
});

wire_names!(FaultKind {
    BootCrash => "boot_crash",
    ExecCrash => "exec_crash",
    StorageStall => "storage_stall",
    Throttled => "throttled",
    Outage => "outage",
    PacketLoss => "packet_loss",
});

macro_rules! keys {
    ($($key:ident,)+) => {
        /// The keys of the `kind` object: the tag and every variant field.
        /// A key's wire spelling is its identifier.
        #[allow(non_camel_case_types)]
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum Key {
            $($key,)+
        }

        impl Key {
            const ALL: &'static [Key] = &[$(Key::$key,)+];
            const COUNT: usize = Key::ALL.len();

            fn of(name: &[u8]) -> Option<Key> {
                Some(match std::str::from_utf8(name).ok()? {
                    $(stringify!($key) => Key::$key,)+
                    _ => return None,
                })
            }

            fn name(self) -> &'static str {
                match self {
                    $(Key::$key => stringify!($key),)+
                }
            }
        }
    };
}

keys! {
    event,
    component,
    request,
    instance,
    cold,
    done_at,
    cause,
    boot,
    import,
    download,
    load,
    billed,
    kind,
    client,
    invocation,
    arrival,
    batch,
    net_in,
    queued,
    exec,
    net_out,
    outcome,
    app,
    requests,
    cost_micro_dollars,
    engine_events,
}

type Build = fn(&Fields<'_>) -> Result<EventKind, WireError>;

/// Every `EventKind` variant's wire tag with the function that builds it
/// from the fields of a parsed line, in declaration order (see [`tag`]).
/// `EventKind::name` reads the tags from here.
const EVENTS: [(&str, Build); 15] = [
    ("request_arrival", |f| {
        Ok(EventKind::RequestArrival {
            component: f.name(Key::component)?,
            request: f.u64(Key::request)?,
        })
    }),
    ("request_queued", |f| {
        Ok(EventKind::RequestQueued {
            component: f.name(Key::component)?,
            request: f.u64(Key::request)?,
        })
    }),
    ("request_rejected", |f| {
        Ok(EventKind::RequestRejected {
            component: f.name(Key::component)?,
            request: f.u64(Key::request)?,
        })
    }),
    ("request_dropped", |f| {
        Ok(EventKind::RequestDropped {
            component: f.name(Key::component)?,
            request: f.u64(Key::request)?,
        })
    }),
    ("exec_start", |f| {
        Ok(EventKind::ExecStart {
            component: f.name(Key::component)?,
            request: f.u64(Key::request)?,
            instance: f.u64(Key::instance)?,
            cold: f.bool(Key::cold)?,
            done_at: f.time(Key::done_at)?,
        })
    }),
    ("instance_spawn", |f| {
        Ok(EventKind::InstanceSpawn {
            component: f.name(Key::component)?,
            instance: f.u64(Key::instance)?,
            cause: f.name(Key::cause)?,
        })
    }),
    ("instance_ready", |f| {
        Ok(EventKind::InstanceReady {
            component: f.name(Key::component)?,
            instance: f.u64(Key::instance)?,
            boot: f.duration(Key::boot)?,
            import: f.duration(Key::import)?,
            download: f.duration(Key::download)?,
            load: f.duration(Key::load)?,
        })
    }),
    ("instance_warm", |f| {
        Ok(EventKind::InstanceWarm {
            component: f.name(Key::component)?,
            instance: f.u64(Key::instance)?,
        })
    }),
    ("instance_crash", |f| {
        Ok(EventKind::InstanceCrash {
            component: f.name(Key::component)?,
            instance: f.u64(Key::instance)?,
        })
    }),
    ("instance_reclaim", |f| {
        Ok(EventKind::InstanceReclaim {
            component: f.name(Key::component)?,
            instance: f.u64(Key::instance)?,
        })
    }),
    ("billing_tick", |f| {
        Ok(EventKind::BillingTick {
            component: f.name(Key::component)?,
            billed: f.duration(Key::billed)?,
        })
    }),
    ("fault", |f| {
        Ok(EventKind::Fault {
            component: f.optional_name(Key::component)?,
            kind: f.name(Key::kind)?,
        })
    }),
    ("request_span", |f| {
        Ok(EventKind::RequestSpan {
            request: f.u64(Key::request)?,
            client: f.u32(Key::client)?,
            invocation: f.u64(Key::invocation)?,
            arrival: f.time(Key::arrival)?,
            batch: f.duration(Key::batch)?,
            net_in: f.duration(Key::net_in)?,
            queued: f.duration(Key::queued)?,
            exec: f.duration(Key::exec)?,
            net_out: f.duration(Key::net_out)?,
            cold: f.bool(Key::cold)?,
            outcome: f.name(Key::outcome)?,
        })
    }),
    ("app_closed", |f| {
        Ok(EventKind::AppClosed {
            app: f.u32(Key::app)?,
            requests: f.u64(Key::requests)?,
            cost_micro_dollars: f.i64(Key::cost_micro_dollars)?,
        })
    }),
    ("run_closed", |f| {
        Ok(EventKind::RunClosed {
            engine_events: f.u64(Key::engine_events)?,
            requests: f.u64(Key::requests)?,
        })
    }),
];

/// The variant's wire tag.
pub(crate) fn tag(kind: &EventKind) -> &'static str {
    let index = match kind {
        EventKind::RequestArrival { .. } => 0,
        EventKind::RequestQueued { .. } => 1,
        EventKind::RequestRejected { .. } => 2,
        EventKind::RequestDropped { .. } => 3,
        EventKind::ExecStart { .. } => 4,
        EventKind::InstanceSpawn { .. } => 5,
        EventKind::InstanceReady { .. } => 6,
        EventKind::InstanceWarm { .. } => 7,
        EventKind::InstanceCrash { .. } => 8,
        EventKind::InstanceReclaim { .. } => 9,
        EventKind::BillingTick { .. } => 10,
        EventKind::Fault { .. } => 11,
        EventKind::RequestSpan { .. } => 12,
        EventKind::AppClosed { .. } => 13,
        EventKind::RunClosed { .. } => 14,
    };
    EVENTS[index].0
}

// --------------------------------------------------------------- writing

/// Appends `ev` to `out` as one compact JSON object, without a newline.
pub fn write_event(ev: &TraceEvent, out: &mut Vec<u8>) {
    let mut w = Writer(out);
    w.0.extend_from_slice(b"{\"at\":");
    w.digits(ev.at.as_micros());
    w.0.extend_from_slice(b",\"kind\":{\"event\":\"");
    w.0.extend_from_slice(tag(&ev.kind).as_bytes());
    w.0.push(b'"');
    match ev.kind {
        EventKind::RequestArrival { component, request }
        | EventKind::RequestQueued { component, request }
        | EventKind::RequestRejected { component, request }
        | EventKind::RequestDropped { component, request } => {
            w.name(Key::component, component);
            w.u64(Key::request, request);
        }
        EventKind::ExecStart {
            component,
            request,
            instance,
            cold,
            done_at,
        } => {
            w.name(Key::component, component);
            w.u64(Key::request, request);
            w.u64(Key::instance, instance);
            w.bool(Key::cold, cold);
            w.u64(Key::done_at, done_at.as_micros());
        }
        EventKind::InstanceSpawn {
            component,
            instance,
            cause,
        } => {
            w.name(Key::component, component);
            w.u64(Key::instance, instance);
            w.name(Key::cause, cause);
        }
        EventKind::InstanceReady {
            component,
            instance,
            boot,
            import,
            download,
            load,
        } => {
            w.name(Key::component, component);
            w.u64(Key::instance, instance);
            w.u64(Key::boot, boot.as_micros());
            w.u64(Key::import, import.as_micros());
            w.u64(Key::download, download.as_micros());
            w.u64(Key::load, load.as_micros());
        }
        EventKind::InstanceWarm {
            component,
            instance,
        }
        | EventKind::InstanceCrash {
            component,
            instance,
        }
        | EventKind::InstanceReclaim {
            component,
            instance,
        } => {
            w.name(Key::component, component);
            w.u64(Key::instance, instance);
        }
        EventKind::BillingTick { component, billed } => {
            w.name(Key::component, component);
            w.u64(Key::billed, billed.as_micros());
        }
        EventKind::Fault { component, kind } => {
            match component {
                Some(c) => w.name(Key::component, c),
                None => {
                    w.key(Key::component);
                    w.0.extend_from_slice(b"null");
                }
            }
            w.name(Key::kind, kind);
        }
        EventKind::RequestSpan {
            request,
            client,
            invocation,
            arrival,
            batch,
            net_in,
            queued,
            exec,
            net_out,
            cold,
            outcome,
        } => {
            w.u64(Key::request, request);
            w.u64(Key::client, u64::from(client));
            w.u64(Key::invocation, invocation);
            w.u64(Key::arrival, arrival.as_micros());
            w.u64(Key::batch, batch.as_micros());
            w.u64(Key::net_in, net_in.as_micros());
            w.u64(Key::queued, queued.as_micros());
            w.u64(Key::exec, exec.as_micros());
            w.u64(Key::net_out, net_out.as_micros());
            w.bool(Key::cold, cold);
            w.name(Key::outcome, outcome);
        }
        EventKind::AppClosed {
            app,
            requests,
            cost_micro_dollars,
        } => {
            w.u64(Key::app, u64::from(app));
            w.u64(Key::requests, requests);
            w.key(Key::cost_micro_dollars);
            if cost_micro_dollars < 0 {
                w.0.push(b'-');
            }
            w.digits(cost_micro_dollars.unsigned_abs());
        }
        EventKind::RunClosed {
            engine_events,
            requests,
        } => {
            w.u64(Key::engine_events, engine_events);
            w.u64(Key::requests, requests);
        }
    }
    w.0.extend_from_slice(b"}}");
}

struct Writer<'a>(&'a mut Vec<u8>);

impl Writer<'_> {
    fn key(&mut self, key: Key) {
        self.0.extend_from_slice(b",\"");
        self.0.extend_from_slice(key.name().as_bytes());
        self.0.extend_from_slice(b"\":");
    }

    fn digits(&mut self, mut v: u64) {
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        loop {
            i -= 1;
            buf[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.0.extend_from_slice(&buf[i..]);
    }

    fn u64(&mut self, key: Key, v: u64) {
        self.key(key);
        self.digits(v);
    }

    fn bool(&mut self, key: Key, v: bool) {
        self.key(key);
        self.0
            .extend_from_slice(if v { b"true" as &[u8] } else { b"false" });
    }

    fn name<T: WireName>(&mut self, key: Key, v: T) {
        self.key(key);
        self.0.push(b'"');
        self.0.extend_from_slice(T::NAMES[v.index()].1.as_bytes());
        self.0.push(b'"');
    }
}

// --------------------------------------------------------------- parsing

/// Parses one line written by [`write_event`], or any JSON object of the
/// language the module documentation describes.
pub fn parse_event(line: &[u8]) -> Result<TraceEvent, WireError> {
    let mut p = Parser { b: line, pos: 0 };
    let mut at = Tok::Absent;
    let mut kind_seen = false;
    let mut fields = Fields([Tok::Absent; Key::COUNT]);
    p.ws();
    p.object(1, |p, key| {
        let mut buf = Unescaped::new();
        match key.text(&mut buf) {
            Some(b"at") if matches!(at, Tok::Absent) => at = p.value(1)?,
            Some(b"kind") if !kind_seen => {
                kind_seen = true;
                if p.peek() != Some(b'{') {
                    return Err(WireError::Invalid {
                        field: "kind",
                        expected: "an object",
                    });
                }
                p.object(2, |p, key| {
                    let mut buf = Unescaped::new();
                    match key.text(&mut buf).and_then(Key::of) {
                        Some(k) if matches!(fields.0[k as usize], Tok::Absent) => {
                            fields.0[k as usize] = p.value(2)?;
                        }
                        _ => p.skip(2)?,
                    }
                    Ok(())
                })?;
            }
            _ => p.skip(1)?,
        }
        Ok(())
    })?;
    p.ws();
    if p.pos != p.b.len() {
        return Err(p.syntax("end of line"));
    }
    let at = match at {
        Tok::U64(v) => SimTime::from_micros(v),
        Tok::Absent => return Err(WireError::Missing { field: "at" }),
        _ => return Err(unsigned("at")),
    };
    if !kind_seen {
        return Err(WireError::Missing { field: "kind" });
    }
    let Tok::Str(tag) = fields.get(Key::event)? else {
        return Err(WireError::Invalid {
            field: "event",
            expected: "a string",
        });
    };
    let mut buf = Unescaped::new();
    let build = tag
        .text(&mut buf)
        .and_then(|t| EVENTS.iter().find(|(name, _)| name.as_bytes() == t))
        .map(|&(_, build)| build)
        .ok_or_else(|| tag.unknown("event"))?;
    Ok(TraceEvent {
        at,
        kind: build(&fields)?,
    })
}

/// A string token: the bytes between the quotes, escapes still in place.
#[derive(Debug, Clone, Copy)]
struct Str<'a> {
    raw: &'a [u8],
    escaped: bool,
}

impl<'a> Str<'a> {
    /// The string's content: the raw bytes, or the unescaped ones in
    /// `buf`; `None` when they do not fit `buf`, which is longer than any
    /// name the schema knows.
    fn text<'s>(&self, buf: &'s mut Unescaped) -> Option<&'s [u8]>
    where
        'a: 's,
    {
        if !self.escaped {
            return Some(self.raw);
        }
        unescape(self.raw, |bytes| buf.push(bytes));
        buf.get()
    }

    fn unknown(&self, field: &'static str) -> WireError {
        let mut name = Vec::new();
        unescape(self.raw, |bytes| name.extend_from_slice(bytes));
        WireError::Unknown {
            field,
            name: String::from_utf8_lossy(&name).into_owned(),
        }
    }
}

/// A stack buffer for unescaping a short string.
struct Unescaped {
    buf: [u8; 32],
    len: usize,
    overflow: bool,
}

impl Unescaped {
    fn new() -> Self {
        Unescaped {
            buf: [0; 32],
            len: 0,
            overflow: false,
        }
    }

    fn push(&mut self, bytes: &[u8]) {
        match self.buf.get_mut(self.len..self.len + bytes.len()) {
            Some(dst) if !self.overflow => {
                dst.copy_from_slice(bytes);
                self.len += bytes.len();
            }
            _ => self.overflow = true,
        }
    }

    fn get(&self) -> Option<&[u8]> {
        (!self.overflow).then_some(&self.buf[..self.len])
    }
}

/// Hands `raw`'s content to `put` in pieces, escapes decoded. `raw` has
/// passed [`Parser::string`], so every escape in it is well formed.
fn unescape(raw: &[u8], mut put: impl FnMut(&[u8])) {
    let mut i = 0;
    while i < raw.len() {
        let run = raw[i..]
            .iter()
            .position(|&b| b == b'\\')
            .unwrap_or(raw.len() - i);
        put(&raw[i..i + run]);
        i += run;
        if i == raw.len() {
            break;
        }
        let decoded = match raw[i + 1] {
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                i += 4;
                hex4(&raw[i - 2..i + 2]).map_or('\u{fffd}', |code| {
                    // Lone surrogates cannot be chars; the vendored
                    // `serde_json` maps them to U+FFFD too.
                    char::from_u32(code).unwrap_or('\u{fffd}')
                })
            }
            other => char::from(other),
        };
        put(decoded.encode_utf8(&mut [0; 4]).as_bytes());
        i += 2;
    }
}

/// The value of a `\u` escape's four hex digits, parsed as the vendored
/// `serde_json` parses them.
fn hex4(digits: &[u8]) -> Option<u32> {
    u32::from_str_radix(std::str::from_utf8(digits).ok()?, 16).ok()
}

/// A JSON value as the parser saw it, before the schema gives it a type.
#[derive(Debug, Clone, Copy)]
enum Tok<'a> {
    Absent,
    U64(u64),
    /// A negative integer (`-0` included).
    I64(i64),
    Bool(bool),
    Null,
    Str(Str<'a>),
    /// A float, array or object: well formed, but no field holds one.
    Other,
}

fn unsigned(field: &'static str) -> WireError {
    WireError::Invalid {
        field,
        expected: "an unsigned integer",
    }
}

/// The `kind` object's fields, first occurrence of each key.
struct Fields<'a>([Tok<'a>; Key::COUNT]);

impl<'a> Fields<'a> {
    fn get(&self, key: Key) -> Result<Tok<'a>, WireError> {
        match self.0[key as usize] {
            Tok::Absent => Err(WireError::Missing { field: key.name() }),
            tok => Ok(tok),
        }
    }

    fn u64(&self, key: Key) -> Result<u64, WireError> {
        match self.get(key)? {
            Tok::U64(v) => Ok(v),
            _ => Err(unsigned(key.name())),
        }
    }

    fn u32(&self, key: Key) -> Result<u32, WireError> {
        u32::try_from(self.u64(key)?).map_err(|_| WireError::Invalid {
            field: key.name(),
            expected: "an unsigned 32-bit integer",
        })
    }

    fn i64(&self, key: Key) -> Result<i64, WireError> {
        let invalid = || WireError::Invalid {
            field: key.name(),
            expected: "a 64-bit integer",
        };
        match self.get(key)? {
            Tok::U64(v) => i64::try_from(v).map_err(|_| invalid()),
            Tok::I64(v) => Ok(v),
            _ => Err(invalid()),
        }
    }

    fn time(&self, key: Key) -> Result<SimTime, WireError> {
        self.u64(key).map(SimTime::from_micros)
    }

    fn duration(&self, key: Key) -> Result<SimDuration, WireError> {
        self.u64(key).map(SimDuration::from_micros)
    }

    fn bool(&self, key: Key) -> Result<bool, WireError> {
        match self.get(key)? {
            Tok::Bool(v) => Ok(v),
            _ => Err(WireError::Invalid {
                field: key.name(),
                expected: "a bool",
            }),
        }
    }

    fn name<T: WireName>(&self, key: Key) -> Result<T, WireError> {
        let Tok::Str(s) = self.get(key)? else {
            return Err(WireError::Invalid {
                field: key.name(),
                expected: "a string",
            });
        };
        let mut buf = Unescaped::new();
        s.text(&mut buf)
            .and_then(|text| T::NAMES.iter().find(|(_, n)| n.as_bytes() == text))
            .map(|&(v, _)| v)
            .ok_or_else(|| s.unknown(key.name()))
    }

    fn optional_name<T: WireName>(&self, key: Key) -> Result<Option<T>, WireError> {
        match self.get(key)? {
            Tok::Null => Ok(None),
            _ => self.name(key).map(Some),
        }
    }
}

/// A pull parser over one line. It never recurses: nested values that
/// the schema does not read are skipped with an explicit stack.
struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn syntax(&self, expected: &'static str) -> WireError {
        WireError::Syntax {
            at: self.pos,
            expected,
        }
    }

    fn eat(&mut self, byte: u8, expected: &'static str) -> Result<(), WireError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.syntax(expected))
        }
    }

    /// Opens an array or object at nesting `depth` (1 for the outermost).
    fn open(&mut self, depth: usize) -> Result<(), WireError> {
        if depth > MAX_DEPTH {
            return Err(WireError::TooDeep { at: self.pos });
        }
        self.pos += 1;
        self.ws();
        Ok(())
    }

    /// Parses an object at nesting `depth`, handing each key to `member`,
    /// which must consume the key's value.
    fn object(
        &mut self,
        depth: usize,
        mut member: impl FnMut(&mut Self, Str<'a>) -> Result<(), WireError>,
    ) -> Result<(), WireError> {
        if self.peek() != Some(b'{') {
            return Err(self.syntax("`{`"));
        }
        self.open(depth)?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            let key = self.key()?;
            member(self, key)?;
            self.ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.ws();
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.syntax("`,` or `}`")),
            }
        }
    }

    /// A member's key and the colon after it; leaves the cursor on the
    /// value.
    fn key(&mut self) -> Result<Str<'a>, WireError> {
        let key = self.string()?;
        self.ws();
        self.eat(b':', "`:`")?;
        self.ws();
        Ok(key)
    }

    /// The value at the cursor, inside `depth` open containers: a scalar
    /// token, or [`Tok::Other`] once a nested value has been skipped.
    fn value(&mut self, depth: usize) -> Result<Tok<'a>, WireError> {
        match self.peek() {
            Some(b'{' | b'[') => {
                self.skip(depth)?;
                Ok(Tok::Other)
            }
            _ => self.scalar(),
        }
    }

    fn scalar(&mut self) -> Result<Tok<'a>, WireError> {
        let literal = |p: &mut Self, text: &[u8], tok| {
            if p.b[p.pos..].starts_with(text) {
                p.pos += text.len();
                Ok(tok)
            } else {
                Err(p.syntax("a value"))
            }
        };
        match self.peek() {
            Some(b'"') => self.string().map(Tok::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b't') => literal(self, b"true", Tok::Bool(true)),
            Some(b'f') => literal(self, b"false", Tok::Bool(false)),
            Some(b'n') => literal(self, b"null", Tok::Null),
            _ => Err(self.syntax("a value")),
        }
    }

    /// Skips the value at the cursor, inside `depth` open containers,
    /// checking that it is well formed.
    fn skip(&mut self, depth: usize) -> Result<(), WireError> {
        // Bit `i` is set when the `i`-th container opened here is an
        // object; at most `MAX_DEPTH` can be open.
        let mut objects: u128 = 0;
        let mut open = 0;
        loop {
            // A value is due.
            match self.peek() {
                Some(c @ (b'{' | b'[')) => {
                    self.open(depth + open + 1)?;
                    let object = c == b'{';
                    if self.peek() == Some(if object { b'}' } else { b']' }) {
                        self.pos += 1;
                    } else {
                        objects = objects & !(1 << open) | u128::from(object) << open;
                        open += 1;
                        if object {
                            self.key()?;
                        }
                        continue;
                    }
                }
                _ => {
                    self.scalar()?;
                }
            }
            // A value has ended: close containers until one continues.
            loop {
                if open == 0 {
                    return Ok(());
                }
                let object = objects >> (open - 1) & 1 == 1;
                self.ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                        self.ws();
                        if object {
                            self.key()?;
                        }
                        break;
                    }
                    Some(b'}') if object => {
                        self.pos += 1;
                        open -= 1;
                    }
                    Some(b']') if !object => {
                        self.pos += 1;
                        open -= 1;
                    }
                    _ => return Err(self.syntax(if object { "`,` or `}`" } else { "`,` or `]`" })),
                }
            }
        }
    }

    /// A string at the cursor. Escapes are checked here and decoded only
    /// when the string is compared or reported.
    fn string(&mut self) -> Result<Str<'a>, WireError> {
        self.eat(b'"', "a string")?;
        let start = self.pos;
        let mut escaped = false;
        let mut ascii = true;
        loop {
            match self.peek() {
                None => return Err(self.syntax("`\"`")),
                Some(b'"') => break,
                Some(b'\\') => {
                    escaped = true;
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.pos += 1;
                        }
                        Some(b'u') => match self.b.get(self.pos + 1..self.pos + 5).and_then(hex4) {
                            Some(_) => self.pos += 5,
                            None => return Err(self.syntax("four hex digits")),
                        },
                        _ => return Err(self.syntax("an escape")),
                    }
                }
                Some(c) => {
                    ascii &= c.is_ascii();
                    self.pos += 1;
                }
            }
        }
        let raw = &self.b[start..self.pos];
        if !ascii && std::str::from_utf8(raw).is_err() {
            return Err(WireError::Syntax {
                at: start,
                expected: "UTF-8",
            });
        }
        self.pos += 1;
        Ok(Str { raw, escaped })
    }

    /// A number at the cursor, classified as the vendored `serde_json`
    /// classifies it: a float if `.`, `e`, `E`, `+` or a second `-`
    /// appears, else a negative or unsigned 64-bit integer.
    fn number(&mut self) -> Result<Tok<'a>, WireError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let mut float = false;
        let mut magnitude: Option<u64> = Some(0);
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => {
                    magnitude = magnitude
                        .and_then(|m| m.checked_mul(10))
                        .and_then(|m| m.checked_add(u64::from(c - b'0')));
                }
                b'.' | b'e' | b'E' | b'+' | b'-' => float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let bad = WireError::Number { at: start };
        if float {
            let text =
                std::str::from_utf8(&self.b[start..self.pos]).expect("number bytes are ascii");
            return text.parse::<f64>().map(|_| Tok::Other).map_err(|_| bad);
        }
        let digits = self.pos - start - usize::from(negative);
        match magnitude {
            Some(_) if digits == 0 => Err(bad),
            Some(m) if !negative => Ok(Tok::U64(m)),
            Some(m) if m <= 1 << 63 => Ok(Tok::I64(0i64.wrapping_sub_unsigned(m))),
            _ => Err(bad),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tables_follow_declaration_order<T: WireName + fmt::Debug>() {
        for (i, (value, name)) in T::NAMES.iter().enumerate() {
            assert_eq!(value.index(), i, "{value:?} {name}");
        }
    }

    #[test]
    fn name_tables_are_indexed_by_discriminant() {
        tables_follow_declaration_order::<Component>();
        tables_follow_declaration_order::<SpawnCause>();
        tables_follow_declaration_order::<SpanOutcome>();
        tables_follow_declaration_order::<FaultKind>();
    }

    #[test]
    fn component_wire_name_differs_from_its_label() {
        let mut out = Vec::new();
        write_event(
            &TraceEvent {
                at: SimTime::ZERO,
                kind: EventKind::InstanceWarm {
                    component: Component::ManagedMl,
                    instance: 1,
                },
            },
            &mut out,
        );
        let line = String::from_utf8(out).unwrap();
        assert!(line.contains("\"managed_ml\""), "{line}");
        assert_eq!(Component::ManagedMl.label(), "managed-ml");
    }

    #[test]
    fn keys_round_trip_through_their_names() {
        for (i, &key) in Key::ALL.iter().enumerate() {
            assert_eq!(key as usize, i);
            assert_eq!(Key::of(key.name().as_bytes()), Some(key));
        }
        assert_eq!(Key::of(b"at"), None);
    }

    #[test]
    fn unescape_decodes_every_escape() {
        let mut out = Vec::new();
        unescape(br#"a\"\\\/\b\f\n\r\tA\ud800z"#, |b| {
            out.extend_from_slice(b)
        });
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "a\"\\/\u{8}\u{c}\n\r\tA\u{fffd}z"
        );
    }

    #[test]
    fn skip_checks_nested_syntax() {
        let skip = |s: &str| {
            let mut p = Parser {
                b: s.as_bytes(),
                pos: 0,
            };
            p.skip(0).map(|_| p.pos)
        };
        assert_eq!(skip(r#"{"a":[1,{"b":null}],"c":{}} "#), Ok(27));
        assert_eq!(skip("[[],[[]]]"), Ok(9));
        assert!(skip("[1:2]").is_err());
        assert!(skip(r#"{"a" 1}"#).is_err());
        assert!(skip(r#"{"a":1]"#).is_err());
        assert!(skip("[1,]").is_err());
        assert!(skip("[").is_err());
        let deep = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert_eq!(skip(&deep), Ok(2 * MAX_DEPTH));
        let deeper = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert_eq!(skip(&deeper), Err(WireError::TooDeep { at: MAX_DEPTH }));
    }
}
