//! Compact binary encoding of workload traces.
//!
//! JSON (via serde) is the human-inspectable interchange format; this module
//! provides the compact binary format used to store corpus-scale traces
//! (828K draws ≈ tens of MB binary vs hundreds of MB JSON). The format is
//! versioned and fully round-trip tested.

use crate::draw::{DrawCall, PrimitiveTopology};
use crate::frame::Frame;
use crate::ids::{DrawId, FrameId, ShaderId, StateId, TextureId};
use crate::shader::{InstructionMix, ShaderLibrary, ShaderProgram, ShaderStage};
use crate::state::{BlendMode, CullMode, DepthMode, StateTable};
use crate::target::RenderTargetDesc;
use crate::texture::{TextureDesc, TextureFormat, TextureRegistry};
use crate::workload::Workload;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

const MAGIC: u32 = 0x5342_3344; // "SB3D"
const VERSION: u16 = 1;

/// Error produced when decoding a binary trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// The buffer does not start with the trace magic number.
    BadMagic,
    /// The format version is not supported by this build.
    UnsupportedVersion(u16),
    /// The buffer ended before the structure was complete.
    Truncated,
    /// An enum tag byte had no defined meaning.
    BadTag {
        /// Which enum was being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u8,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::BadMagic => write!(f, "buffer is not a subset3d binary trace"),
            EncodeError::UnsupportedVersion(v) => write!(f, "unsupported trace version {v}"),
            EncodeError::Truncated => write!(f, "trace buffer is truncated"),
            EncodeError::BadTag { what, tag } => write!(f, "invalid {what} tag {tag}"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// Encodes a workload into the compact binary trace format.
///
/// # Examples
///
/// ```
/// use subset3d_trace::gen::GameProfile;
/// use subset3d_trace::{decode_workload, encode_workload};
///
/// let w = GameProfile::shooter("g").frames(2).draws_per_frame(10).build(1).generate();
/// let bytes = encode_workload(&w);
/// let back = decode_workload(&bytes)?;
/// assert_eq!(w, back);
/// # Ok::<(), subset3d_trace::EncodeError>(())
/// ```
pub fn encode_workload(w: &Workload) -> Bytes {
    let mut buf = BytesMut::with_capacity(1024 + w.total_draws() * 96);
    buf.put_u32(MAGIC);
    buf.put_u16(VERSION);
    put_str(&mut buf, &w.name);

    buf.put_u32(w.shaders().len() as u32);
    for p in w.shaders().iter() {
        put_shader(&mut buf, p);
    }
    buf.put_u32(w.textures().len() as u32);
    for t in w.textures().iter() {
        put_texture(&mut buf, t);
    }
    buf.put_u32(w.states().len() as u32);
    for s in w.states().iter() {
        buf.put_u32(s.id.raw());
        buf.put_u32(s.vertex_shader.raw());
        buf.put_u32(s.pixel_shader.raw());
        buf.put_u8(blend_tag(s.blend));
        buf.put_u8(depth_tag(s.depth));
        buf.put_u8(cull_tag(s.cull));
    }
    put_frames(&mut buf, w.frames());
    buf.freeze()
}

/// Decodes a workload from the compact binary trace format.
///
/// # Errors
///
/// Returns an [`EncodeError`] when the buffer is not a valid trace of a
/// supported version — including [`EncodeError::Truncated`] when a
/// declared count claims more content than the buffer holds.
pub fn decode_workload(mut buf: &[u8]) -> Result<Workload, EncodeError> {
    if buf.remaining() < 6 {
        return Err(EncodeError::Truncated);
    }
    if buf.get_u32() != MAGIC {
        return Err(EncodeError::BadMagic);
    }
    let version = buf.get_u16();
    if version != VERSION {
        return Err(EncodeError::UnsupportedVersion(version));
    }
    let name = get_str(&mut buf)?;

    let n_shaders = get_u32(&mut buf)? as usize;
    let mut shaders = ShaderLibrary::new();
    for _ in 0..n_shaders {
        shaders.insert(get_shader(&mut buf)?);
    }
    let n_textures = get_u32(&mut buf)? as usize;
    let mut textures = TextureRegistry::new();
    for _ in 0..n_textures {
        textures.insert(get_texture(&mut buf)?);
    }
    let n_states = get_u32(&mut buf)? as usize;
    let mut states = StateTable::new();
    for _ in 0..n_states {
        need(buf, 15)?;
        let _id = buf.get_u32();
        let vs = ShaderId(buf.get_u32());
        let ps = ShaderId(buf.get_u32());
        let blend = blend_from(buf.get_u8())?;
        let depth = depth_from(buf.get_u8())?;
        let cull = cull_from(buf.get_u8())?;
        states.intern(vs, ps, blend, depth, cull);
    }
    let frames = get_frames(&mut buf)?;
    Ok(Workload::new(name, frames, shaders, textures, states))
}

/// Encodes a slice of frames as a standalone chunk — the unit streaming
/// ingestion ships over the wire. Same magic, version, and per-frame
/// layout as the frames section of [`encode_workload`], so a chunked
/// stream and a whole-workload trace are byte-compatible at frame
/// granularity; shader/state/texture ids are raw references, resolved
/// against tables shipped separately (a frameless [`encode_workload`]).
///
/// # Examples
///
/// ```
/// use subset3d_trace::gen::GameProfile;
/// use subset3d_trace::{decode_frames, encode_frames};
///
/// let w = GameProfile::shooter("g").frames(3).draws_per_frame(10).build(1).generate();
/// let bytes = encode_frames(&w.frames()[..2]);
/// let back = decode_frames(&bytes)?;
/// assert_eq!(&w.frames()[..2], &back[..]);
/// # Ok::<(), subset3d_trace::EncodeError>(())
/// ```
pub fn encode_frames(frames: &[Frame]) -> Bytes {
    let draws: usize = frames.iter().map(Frame::draw_count).sum();
    let mut buf = BytesMut::with_capacity(16 + draws * 96);
    buf.put_u32(MAGIC);
    buf.put_u16(VERSION);
    put_frames(&mut buf, frames);
    buf.freeze()
}

/// Decodes a standalone frame chunk produced by [`encode_frames`].
///
/// # Errors
///
/// Returns an [`EncodeError`] when the buffer is not a valid chunk of a
/// supported version — including [`EncodeError::Truncated`] when a
/// declared frame or draw count claims more content than the buffer
/// holds, so a hostile length field cannot force an oversized
/// allocation to be trusted.
pub fn decode_frames(mut buf: &[u8]) -> Result<Vec<Frame>, EncodeError> {
    if buf.remaining() < 6 {
        return Err(EncodeError::Truncated);
    }
    if buf.get_u32() != MAGIC {
        return Err(EncodeError::BadMagic);
    }
    let version = buf.get_u16();
    if version != VERSION {
        return Err(EncodeError::UnsupportedVersion(version));
    }
    get_frames(&mut buf)
}

/// Writes the frames section shared by [`encode_workload`] and
/// [`encode_frames`]: a `u32` frame count, then per frame its id, its
/// draw count and its draws.
fn put_frames(buf: &mut BytesMut, frames: &[Frame]) {
    buf.put_u32(frames.len() as u32);
    for frame in frames {
        buf.put_u32(frame.id.raw());
        buf.put_u32(frame.draw_count() as u32);
        for d in frame.to_draws() {
            put_draw(buf, &d);
        }
    }
}

/// Reads a frames section written by [`put_frames`]. Its frame and draw
/// counts are untrusted, so nothing is reserved from them: vectors grow
/// only with content actually decoded, and a count that claims more
/// content than the buffer holds ends in [`EncodeError::Truncated`].
fn get_frames(buf: &mut &[u8]) -> Result<Vec<Frame>, EncodeError> {
    let n_frames = get_u32(buf)?;
    let mut frames = Vec::new();
    for _ in 0..n_frames {
        let id = FrameId(get_u32(buf)?);
        let n_draws = get_u32(buf)?;
        let mut draws = Vec::new();
        for _ in 0..n_draws {
            draws.push(get_draw(buf)?);
        }
        frames.push(Frame::new(id, draws));
    }
    Ok(frames)
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> Result<String, EncodeError> {
    let len = get_u32(buf)? as usize;
    need(buf, len)?;
    let bytes = buf[..len].to_vec();
    buf.advance(len);
    String::from_utf8(bytes).map_err(|_| EncodeError::Truncated)
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, EncodeError> {
    need(buf, 4)?;
    Ok(buf.get_u32())
}

fn need(buf: &[u8], n: usize) -> Result<(), EncodeError> {
    if buf.remaining() < n {
        Err(EncodeError::Truncated)
    } else {
        Ok(())
    }
}

fn put_shader(buf: &mut BytesMut, p: &ShaderProgram) {
    buf.put_u32(p.id.raw());
    buf.put_u8(match p.stage {
        ShaderStage::Vertex => 0,
        ShaderStage::Pixel => 1,
    });
    put_str(buf, &p.name);
    for v in [
        p.mix.alu,
        p.mix.mad,
        p.mix.transcendental,
        p.mix.texture_samples,
        p.mix.interpolants,
        p.mix.control_flow,
        p.registers,
    ] {
        buf.put_u32(v);
    }
    buf.put_f64(p.divergence);
}

fn get_shader(buf: &mut &[u8]) -> Result<ShaderProgram, EncodeError> {
    let id = ShaderId(get_u32(buf)?);
    need(buf, 1)?;
    let stage = match buf.get_u8() {
        0 => ShaderStage::Vertex,
        1 => ShaderStage::Pixel,
        tag => {
            return Err(EncodeError::BadTag {
                what: "shader stage",
                tag,
            })
        }
    };
    let name = get_str(buf)?;
    need(buf, 7 * 4 + 8)?;
    let mix = InstructionMix {
        alu: buf.get_u32(),
        mad: buf.get_u32(),
        transcendental: buf.get_u32(),
        texture_samples: buf.get_u32(),
        interpolants: buf.get_u32(),
        control_flow: buf.get_u32(),
    };
    let registers = buf.get_u32();
    let divergence = buf.get_f64();
    let mut p = ShaderProgram::new(id, stage, name, mix);
    p.registers = registers;
    p.divergence = divergence;
    Ok(p)
}

fn put_texture(buf: &mut BytesMut, t: &TextureDesc) {
    buf.put_u32(t.id.raw());
    buf.put_u32(t.width);
    buf.put_u32(t.height);
    buf.put_u32(t.mips);
    buf.put_u8(format_tag(t.format));
}

fn get_texture(buf: &mut &[u8]) -> Result<TextureDesc, EncodeError> {
    need(buf, 17)?;
    Ok(TextureDesc {
        id: TextureId(buf.get_u32()),
        width: buf.get_u32(),
        height: buf.get_u32(),
        mips: buf.get_u32(),
        format: format_from(buf.get_u8())?,
    })
}

fn put_draw(buf: &mut BytesMut, d: &DrawCall) {
    buf.put_u64(d.id.raw());
    buf.put_u32(d.state.raw());
    buf.put_u32(d.vertex_shader.raw());
    buf.put_u32(d.pixel_shader.raw());
    buf.put_u8(blend_tag(d.blend));
    buf.put_u8(depth_tag(d.depth));
    buf.put_u8(cull_tag(d.cull));
    buf.put_u8(match d.topology {
        PrimitiveTopology::TriangleList => 0,
        PrimitiveTopology::TriangleStrip => 1,
        PrimitiveTopology::LineList => 2,
        PrimitiveTopology::PointList => 3,
    });
    buf.put_u64(d.vertex_count);
    buf.put_u32(d.instance_count);
    buf.put_u16(d.textures.len() as u16);
    for t in &d.textures {
        buf.put_u32(t.raw());
    }
    buf.put_u32(d.render_target.width);
    buf.put_u32(d.render_target.height);
    buf.put_u8(format_tag(d.render_target.format));
    buf.put_u32(d.render_target.samples);
    buf.put_u32(d.render_target.color_attachments);
    buf.put_f64(d.coverage);
    buf.put_f64(d.overdraw);
    buf.put_f64(d.z_pass_rate);
    buf.put_f64(d.texel_locality);
    buf.put_u32(d.material_tag);
}

fn get_draw(buf: &mut &[u8]) -> Result<DrawCall, EncodeError> {
    need(buf, 8 + 4 * 3 + 4)?;
    let id = DrawId(buf.get_u64());
    let state = StateId(buf.get_u32());
    let vertex_shader = ShaderId(buf.get_u32());
    let pixel_shader = ShaderId(buf.get_u32());
    let blend = blend_from(buf.get_u8())?;
    let depth = depth_from(buf.get_u8())?;
    let cull = cull_from(buf.get_u8())?;
    let topology = match buf.get_u8() {
        0 => PrimitiveTopology::TriangleList,
        1 => PrimitiveTopology::TriangleStrip,
        2 => PrimitiveTopology::LineList,
        3 => PrimitiveTopology::PointList,
        tag => {
            return Err(EncodeError::BadTag {
                what: "topology",
                tag,
            })
        }
    };
    need(buf, 8 + 4 + 2)?;
    let vertex_count = buf.get_u64();
    let instance_count = buf.get_u32();
    let n_textures = buf.get_u16() as usize;
    need(buf, n_textures * 4)?;
    let mut textures = Vec::with_capacity(n_textures);
    for _ in 0..n_textures {
        textures.push(TextureId(buf.get_u32()));
    }
    need(buf, 4 + 4 + 1 + 4 + 4 + 8 * 4 + 4)?;
    let render_target = RenderTargetDesc {
        width: buf.get_u32(),
        height: buf.get_u32(),
        format: format_from(buf.get_u8())?,
        samples: buf.get_u32(),
        color_attachments: buf.get_u32(),
    };
    Ok(DrawCall {
        id,
        state,
        vertex_shader,
        pixel_shader,
        blend,
        depth,
        cull,
        topology,
        vertex_count,
        instance_count,
        textures,
        render_target,
        coverage: buf.get_f64(),
        overdraw: buf.get_f64(),
        z_pass_rate: buf.get_f64(),
        texel_locality: buf.get_f64(),
        material_tag: buf.get_u32(),
    })
}

fn blend_tag(b: BlendMode) -> u8 {
    match b {
        BlendMode::Opaque => 0,
        BlendMode::AlphaBlend => 1,
        BlendMode::Additive => 2,
    }
}

fn blend_from(tag: u8) -> Result<BlendMode, EncodeError> {
    Ok(match tag {
        0 => BlendMode::Opaque,
        1 => BlendMode::AlphaBlend,
        2 => BlendMode::Additive,
        tag => {
            return Err(EncodeError::BadTag {
                what: "blend mode",
                tag,
            })
        }
    })
}

fn depth_tag(d: DepthMode) -> u8 {
    match d {
        DepthMode::TestAndWrite => 0,
        DepthMode::TestOnly => 1,
        DepthMode::Disabled => 2,
    }
}

fn depth_from(tag: u8) -> Result<DepthMode, EncodeError> {
    Ok(match tag {
        0 => DepthMode::TestAndWrite,
        1 => DepthMode::TestOnly,
        2 => DepthMode::Disabled,
        tag => {
            return Err(EncodeError::BadTag {
                what: "depth mode",
                tag,
            })
        }
    })
}

fn cull_tag(c: CullMode) -> u8 {
    match c {
        CullMode::None => 0,
        CullMode::Back => 1,
        CullMode::Front => 2,
    }
}

fn cull_from(tag: u8) -> Result<CullMode, EncodeError> {
    Ok(match tag {
        0 => CullMode::None,
        1 => CullMode::Back,
        2 => CullMode::Front,
        tag => {
            return Err(EncodeError::BadTag {
                what: "cull mode",
                tag,
            })
        }
    })
}

fn format_tag(f: TextureFormat) -> u8 {
    match f {
        TextureFormat::Rgba8 => 0,
        TextureFormat::Bc1 => 1,
        TextureFormat::Bc3 => 2,
        TextureFormat::Rgba16f => 3,
        TextureFormat::Rg32f => 4,
        TextureFormat::Depth24Stencil8 => 5,
    }
}

fn format_from(tag: u8) -> Result<TextureFormat, EncodeError> {
    Ok(match tag {
        0 => TextureFormat::Rgba8,
        1 => TextureFormat::Bc1,
        2 => TextureFormat::Bc3,
        3 => TextureFormat::Rgba16f,
        4 => TextureFormat::Rg32f,
        5 => TextureFormat::Depth24Stencil8,
        tag => {
            return Err(EncodeError::BadTag {
                what: "texture format",
                tag,
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GameProfile;

    fn sample() -> Workload {
        GameProfile::shooter("roundtrip")
            .frames(5)
            .draws_per_frame(40)
            .build(11)
            .generate()
    }

    #[test]
    fn roundtrip_preserves_workload() {
        let w = sample();
        let encoded = encode_workload(&w);
        let decoded = decode_workload(&encoded).unwrap();
        assert_eq!(w, decoded);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = decode_workload(&[0u8; 16]).unwrap_err();
        assert_eq!(err, EncodeError::BadMagic);
    }

    #[test]
    fn truncated_buffer_rejected() {
        let w = sample();
        let encoded = encode_workload(&w);
        let cut = &encoded[..encoded.len() / 2];
        assert!(matches!(
            decode_workload(cut),
            Err(EncodeError::Truncated) | Err(EncodeError::BadTag { .. })
        ));
    }

    #[test]
    fn unsupported_version_rejected() {
        let w = sample();
        let mut encoded = encode_workload(&w).to_vec();
        encoded[4] = 0xFF;
        assert!(matches!(
            decode_workload(&encoded),
            Err(EncodeError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn frame_chunk_roundtrip_preserves_frames() {
        let w = sample();
        let chunk = encode_frames(&w.frames()[1..4]);
        let back = decode_frames(&chunk).unwrap();
        assert_eq!(&w.frames()[1..4], &back[..]);
        // Empty chunks are legal (a keepalive-shaped ingest).
        assert_eq!(decode_frames(&encode_frames(&[])).unwrap(), Vec::new());
    }

    #[test]
    fn frame_chunk_rejects_corruption() {
        let w = sample();
        let chunk = encode_frames(w.frames());
        assert_eq!(decode_frames(&[0u8; 8]).unwrap_err(), EncodeError::BadMagic);
        assert!(matches!(
            decode_frames(&chunk[..chunk.len() / 3]),
            Err(EncodeError::Truncated) | Err(EncodeError::BadTag { .. })
        ));
        let mut versioned = chunk.to_vec();
        versioned[4] = 0xFF;
        assert!(matches!(
            decode_frames(&versioned),
            Err(EncodeError::UnsupportedVersion(_))
        ));
        // A hostile frame count cannot make the decoder trust phantom
        // content: it runs out of buffer and reports truncation.
        let mut hostile = chunk.to_vec();
        hostile[6..10].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            decode_frames(&hostile),
            Err(EncodeError::Truncated) | Err(EncodeError::BadTag { .. })
        ));
    }

    #[test]
    fn hostile_counts_in_a_short_buffer_are_truncated() {
        // A frameless workload (the OPEN payload shape) whose frame count
        // claims `u32::MAX` frames, then one real frame whose draw count
        // claims `u32::MAX` draws: both must end in a typed truncation,
        // never an allocation sized by the claim. (Standalone chunks
        // share the frames decoder; `frame_chunk_rejects_corruption`
        // covers their hostile frame count.)
        let w = sample();
        let tables = Workload::new(
            w.name.clone(),
            Vec::new(),
            w.shaders().clone(),
            w.textures().clone(),
            w.states().clone(),
        );
        let frameless = encode_workload(&tables).to_vec();
        let count_at = frameless.len() - 4;
        let mut hostile_frames = frameless.clone();
        hostile_frames[count_at..].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(
            decode_workload(&hostile_frames),
            Err(EncodeError::Truncated)
        );

        let mut hostile_draws = frameless;
        hostile_draws[count_at..].copy_from_slice(&1u32.to_be_bytes());
        hostile_draws.extend_from_slice(&7u32.to_be_bytes()); // frame id
        hostile_draws.extend_from_slice(&u32::MAX.to_be_bytes()); // draw count
        assert_eq!(decode_workload(&hostile_draws), Err(EncodeError::Truncated));
    }

    #[test]
    fn binary_is_smaller_than_json() {
        let w = sample();
        let bin = encode_workload(&w).len();
        let json = serde_json::to_vec(&w).unwrap().len();
        assert!(bin < json, "binary {bin} should beat json {json}");
    }

    #[test]
    fn empty_buffer_is_truncated() {
        assert_eq!(decode_workload(&[]), Err(EncodeError::Truncated));
    }
}
