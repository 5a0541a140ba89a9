#include "isa.hh"

#include <array>
#include <cctype>

#include "vsim/base/logging.hh"

namespace vsim::isa
{

namespace detail
{

using enum Format;
using enum ExecClass;

// name, fmt, cls, writesReg, readsRb, readsRc, readsRa
constexpr std::array<OpInfo, kNumOps> kOpTable = {{
    {"add",   F_RRR,  IntAlu, true,  true,  true,  false},
    {"sub",   F_RRR,  IntAlu, true,  true,  true,  false},
    {"and",   F_RRR,  IntAlu, true,  true,  true,  false},
    {"or",    F_RRR,  IntAlu, true,  true,  true,  false},
    {"xor",   F_RRR,  IntAlu, true,  true,  true,  false},
    {"sll",   F_RRR,  IntAlu, true,  true,  true,  false},
    {"srl",   F_RRR,  IntAlu, true,  true,  true,  false},
    {"sra",   F_RRR,  IntAlu, true,  true,  true,  false},
    {"slt",   F_RRR,  IntAlu, true,  true,  true,  false},
    {"sltu",  F_RRR,  IntAlu, true,  true,  true,  false},
    {"mul",   F_RRR,  IntMul, true,  true,  true,  false},
    {"mulh",  F_RRR,  IntMul, true,  true,  true,  false},
    {"div",   F_RRR,  IntDiv, true,  true,  true,  false},
    {"divu",  F_RRR,  IntDiv, true,  true,  true,  false},
    {"rem",   F_RRR,  IntDiv, true,  true,  true,  false},
    {"remu",  F_RRR,  IntDiv, true,  true,  true,  false},
    {"addi",  F_RRI,  IntAlu, true,  true,  false, false},
    {"andi",  F_RRI,  IntAlu, true,  true,  false, false},
    {"ori",   F_RRI,  IntAlu, true,  true,  false, false},
    {"xori",  F_RRI,  IntAlu, true,  true,  false, false},
    {"slli",  F_RRI,  IntAlu, true,  true,  false, false},
    {"srli",  F_RRI,  IntAlu, true,  true,  false, false},
    {"srai",  F_RRI,  IntAlu, true,  true,  false, false},
    {"slti",  F_RRI,  IntAlu, true,  true,  false, false},
    {"sltiu", F_RRI,  IntAlu, true,  true,  false, false},
    {"lui",   F_RI20, IntAlu, true,  false, false, false},
    {"auipc", F_RI20, IntAlu, true,  false, false, false},
    {"beq",   F_RRI,  Branch, false, true,  false, true},
    {"bne",   F_RRI,  Branch, false, true,  false, true},
    {"blt",   F_RRI,  Branch, false, true,  false, true},
    {"bge",   F_RRI,  Branch, false, true,  false, true},
    {"bltu",  F_RRI,  Branch, false, true,  false, true},
    {"bgeu",  F_RRI,  Branch, false, true,  false, true},
    {"jal",   F_RI20, Branch, true,  false, false, false},
    {"jalr",  F_RRI,  Branch, true,  true,  false, false},
    {"lb",    F_RRI,  Load,   true,  true,  false, false},
    {"lbu",   F_RRI,  Load,   true,  true,  false, false},
    {"lh",    F_RRI,  Load,   true,  true,  false, false},
    {"lhu",   F_RRI,  Load,   true,  true,  false, false},
    {"lw",    F_RRI,  Load,   true,  true,  false, false},
    {"lwu",   F_RRI,  Load,   true,  true,  false, false},
    {"ld",    F_RRI,  Load,   true,  true,  false, false},
    {"sb",    F_RRI,  Store,  false, true,  false, true},
    {"sh",    F_RRI,  Store,  false, true,  false, true},
    {"sw",    F_RRI,  Store,  false, true,  false, true},
    {"sd",    F_RRI,  Store,  false, true,  false, true},
    {"halt",  F_RRI,  System, false, false, false, true},
    {"putc",  F_RRI,  System, false, false, false, true},
    {"puti",  F_RRI,  System, false, false, false, true},
}};

} // namespace detail

namespace
{

constexpr const char *kAbiNames[kNumRegs] = {
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
    "s0",   "s1", "a0", "a1", "a2", "a3", "a4", "a5",
    "a6",   "a7", "s2", "s3", "s4", "s5", "s6", "s7",
    "s8",   "s9", "s10", "s11", "t3", "t4", "t5", "t6",
};

std::int32_t
signExtend(std::uint32_t value, int bits)
{
    const std::uint32_t m = 1u << (bits - 1);
    value &= (1u << bits) - 1;
    return static_cast<std::int32_t>((value ^ m) - m);
}

} // namespace

std::uint32_t
encode(const Inst &inst)
{
    const OpInfo &oi = inst.info();
    std::uint32_t word = static_cast<std::uint32_t>(inst.op) << 25;
    word |= (static_cast<std::uint32_t>(inst.ra) & 0x1f) << 20;
    switch (oi.fmt) {
      case Format::F_RRR:
        word |= (static_cast<std::uint32_t>(inst.rb) & 0x1f) << 15;
        word |= (static_cast<std::uint32_t>(inst.rc) & 0x1f) << 10;
        break;
      case Format::F_RRI:
        VSIM_ASSERT(inst.imm >= -(1 << 14) && inst.imm < (1 << 14),
                    "imm15 out of range: ", inst.imm);
        word |= (static_cast<std::uint32_t>(inst.rb) & 0x1f) << 15;
        word |= static_cast<std::uint32_t>(inst.imm) & 0x7fff;
        break;
      case Format::F_RI20:
        VSIM_ASSERT(inst.imm >= -(1 << 19) && inst.imm < (1 << 19),
                    "imm20 out of range: ", inst.imm);
        word |= static_cast<std::uint32_t>(inst.imm) & 0xfffff;
        break;
    }
    return word;
}

std::optional<Inst>
decode(std::uint32_t word)
{
    const std::uint32_t opfield = word >> 25;
    if (opfield >= static_cast<std::uint32_t>(kNumOps))
        return std::nullopt;

    Inst inst;
    inst.op = static_cast<Op>(opfield);
    inst.ra = (word >> 20) & 0x1f;
    const OpInfo &oi = inst.info();
    switch (oi.fmt) {
      case Format::F_RRR:
        inst.rb = (word >> 15) & 0x1f;
        inst.rc = (word >> 10) & 0x1f;
        break;
      case Format::F_RRI:
        inst.rb = (word >> 15) & 0x1f;
        inst.imm = signExtend(word & 0x7fff, 15);
        break;
      case Format::F_RI20:
        inst.imm = signExtend(word & 0xfffff, 20);
        break;
    }
    return inst;
}

std::string
disassemble(const Inst &inst)
{
    const OpInfo &oi = inst.info();
    std::string s = oi.name;
    auto reg = [](int r) { return std::string(regName(r)); };

    switch (inst.op) {
      case Op::HALT:
      case Op::PUTC:
      case Op::PUTI:
        return s + " " + reg(inst.ra);
      case Op::JAL:
        return s + " " + reg(inst.ra) + ", " + std::to_string(inst.imm);
      case Op::JALR:
        return s + " " + reg(inst.ra) + ", " + reg(inst.rb) + ", "
               + std::to_string(inst.imm);
      default:
        break;
    }

    if (inst.isMem()) {
        return s + " " + reg(inst.ra) + ", " + std::to_string(inst.imm)
               + "(" + reg(inst.rb) + ")";
    }
    if (inst.isCondBranch()) {
        return s + " " + reg(inst.ra) + ", " + reg(inst.rb) + ", "
               + std::to_string(inst.imm);
    }
    switch (oi.fmt) {
      case Format::F_RRR:
        return s + " " + reg(inst.ra) + ", " + reg(inst.rb) + ", "
               + reg(inst.rc);
      case Format::F_RRI:
        return s + " " + reg(inst.ra) + ", " + reg(inst.rb) + ", "
               + std::to_string(inst.imm);
      case Format::F_RI20:
        return s + " " + reg(inst.ra) + ", " + std::to_string(inst.imm);
    }
    VSIM_PANIC("unreachable");
}

const char *
regName(int reg)
{
    VSIM_ASSERT(reg >= 0 && reg < kNumRegs, "bad register ", reg);
    return kAbiNames[reg];
}

int
parseRegName(const std::string &name)
{
    if (name.size() >= 2 && name[0] == 'x') {
        int value = 0;
        for (std::size_t i = 1; i < name.size(); ++i) {
            if (!std::isdigit(static_cast<unsigned char>(name[i])))
                return -1;
            value = value * 10 + (name[i] - '0');
        }
        return value < kNumRegs ? value : -1;
    }
    for (int r = 0; r < kNumRegs; ++r) {
        if (name == kAbiNames[r])
            return r;
    }
    if (name == "fp") // alternate name for s0
        return 8;
    return -1;
}

} // namespace vsim::isa
