#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "crypto/aead.h"
#include "crypto/chacha20.h"
#include "crypto/drbg.h"
#include "crypto/poly1305.h"
#include "crypto/ed25519.h"
#include "crypto/fe25519.h"
#include "crypto/ge25519.h"
#include "crypto/hmac.h"
#include "crypto/sc25519.h"
#include "crypto/sha256.h"
#include "crypto/sha512.h"
#include "ed25519_oracle.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace vegvisir::crypto {
namespace {

std::string DigestHex(ByteSpan d) { return ToHex(d); }

// The four points of order 8.
constexpr const char* kOrder8[] = {
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
};

constexpr const char* kLHex =
    "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010";

// ---------------------------------------------------------------- SHA-256

TEST(Sha256Test, EmptyString) {
  const auto d = Sha256::Hash({});
  EXPECT_EQ(DigestHex(d),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  const auto d = Sha256::Hash(BytesOf("abc"));
  EXPECT_EQ(DigestHex(d),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  const auto d = Sha256::Hash(
      BytesOf("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
  EXPECT_EQ(DigestHex(d),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(DigestHex(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const Bytes msg = BytesOf("the quick brown fox jumps over the lazy dog");
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.Update(ByteSpan(msg.data(), split));
    h.Update(ByteSpan(msg.data() + split, msg.size() - split));
    EXPECT_EQ(h.Finish(), Sha256::Hash(msg)) << "split at " << split;
  }
}

TEST(Sha256Test, ResetAllowsReuse) {
  Sha256 h;
  h.Update(BytesOf("garbage"));
  (void)h.Finish();
  h.Reset();
  h.Update(BytesOf("abc"));
  EXPECT_EQ(DigestHex(h.Finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, LengthBoundaryPaddings) {
  // 55/56/64-byte messages exercise the three padding branches.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 127u, 128u}) {
    const Bytes msg(len, 0x5a);
    Sha256 whole;
    whole.Update(msg);
    Sha256 split;
    split.Update(ByteSpan(msg.data(), len / 2));
    split.Update(ByteSpan(msg.data() + len / 2, len - len / 2));
    EXPECT_EQ(whole.Finish(), split.Finish()) << len;
  }
}

// ---------------------------------------------------------------- SHA-512

TEST(Sha512Test, EmptyString) {
  const auto d = Sha512::Hash({});
  EXPECT_EQ(DigestHex(d),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512Test, Abc) {
  const auto d = Sha512::Hash(BytesOf("abc"));
  EXPECT_EQ(DigestHex(d),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512Test, TwoBlockMessage) {
  const auto d = Sha512::Hash(BytesOf(
      "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
      "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"));
  EXPECT_EQ(DigestHex(d),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
            "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512Test, MillionAs) {
  Sha512 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(DigestHex(h.Finish()),
            "e718483d0ce769644e2e42c7bc15b4638e1f98b13b2044285632a803afa973eb"
            "de0ff244877ea60a4cb0432ce577c31beb009c5c2c49aa2e4eadb217ad8cc09b");
}

TEST(Sha512Test, IncrementalMatchesOneShot) {
  const Bytes msg(300, 0xa7);
  for (std::size_t split : {0u, 1u, 127u, 128u, 129u, 300u}) {
    Sha512 h;
    h.Update(ByteSpan(msg.data(), split));
    h.Update(ByteSpan(msg.data() + split, msg.size() - split));
    EXPECT_EQ(h.Finish(), Sha512::Hash(msg)) << split;
  }
}

// Digests across every padding layout (the 0x80 byte and the length
// in one block or spilling into a second), for the message whose byte
// i is i * 31 + 7. Computed with the byte-at-a-time padding the
// one-tail Finish replaced.
struct PaddingGolden {
  std::size_t len;
  const char* sha256;
  const char* sha512;
};

constexpr PaddingGolden kPaddingGoldens[] = {
    {0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
     "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"},
    {55,
     "8aa994584139d128848eeebc4e815639ba5ab6e6e39574195a63ac4f14f7c43b",
     "330eb5e81b4d722cae1e0efbf883efb180c3e346d2b3b797dafc90409583ed35"
     "af65dc2d7974a353f0c21663e196b60d3ee5a2c70c50b7b3bccdb93a5dbce6bf"},
    {56,
     "ad574708f75c044c9b85de64cb568ee7711ff4f36448c6242f053ba8f6cc2b63",
     "1b5b63bfd5420b2dc480abce3dbdb3e19e5f9d4fabffba7764883937eaae878a"
     "55362c938c141712c44c3076c3fabb2c60814c2994c311c33049a8d6de2a8898"},
    {63,
     "280ed3e8ff1df845b2e7dfe6ac6cee817bef20e783cc65abc41b818b4d2fe076",
     "b16f76c30db64b5ee1ef166d2d37e13ff6cee9fd88bae9ba283cd58e0a2133b2"
     "20a76db56279406461f84ce2cffd1d116d38fd9f38fc5df18770a987ff695499"},
    {64,
     "c6ab9724ade5b6a7a1edfffb12f3aa9181351355af8fd08c919952ad211339dd",
     "4c7aba3659929c4fd87604c532a3b5f174d0626b2d661dbbbfac76c97a49a5a7"
     "789d2c68324c754f66bf629fa72054f334feaad8b1cf4c885ae03a1e634afc18"},
    {111,
     "dd1413178fb627f9abbc041ffe39c44aa7aaa0e2e6d2ca5c4528ac7073a2da45",
     "da780d8338a8a920ceb6892cb4ecbb0cc0c66956269aadd5dd0f48790a00857b"
     "d975890f3b2955a317738cc7a770820c29f922ffbc22020f1909d594cc987d1b"},
    {112,
     "a65c92dac124062d0ab951a42773cb04fc98d1d4bf8897b176f8cff3509d379e",
     "053182f7fa4e59f8636e415a77ed4fdc650f0a43834c9d35adf899599c3ab9c4"
     "153f02ff50bd01888060cd36a6fa12d9db242fc35164c80135613514186d5843"},
    {127,
     "192409cd280e14b743642ad1343fbd3e82d9305de72c078117745a679210cc3d",
     "a7a75593826fd37d4e60f6101eabb9f8ab1cf4d5319ebc805266d5da8deb5097"
     "de1a235fc5d9d3d73c50ac100ffc75089fb454674ab61232091bd19cbdc67396"},
    {128,
     "cc548ca2dec1f6fe4f58b2e27aa9c7521607df1130d140b55a4dad0665302356",
     "df007a08f3aaae47e0c92ef840ecd43645ae6098c819f2a4a66174ef1cd49e5c"
     "6dfccf0616895e570b7564af641de5863dff9f89c752913d30cf0ecf678e1635"},
    {1000,
     "5097e7d587352f5097062ae679f37bda5802d9f875aba14c8cb4d1a188ada179",
     "b41d42e106eca6bf57123566b7ed1550c37d33af23afbfa8e302dfd44c988b30"
     "03a26b4140ef42f535e66ea424e7c4a31616307269e6d520a6508f726da23d0a"},
};

Bytes PaddingGoldenMessage(std::size_t len) {
  Bytes msg(len);
  for (std::size_t i = 0; i < len; ++i) {
    msg[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  return msg;
}

TEST(Sha256Test, PaddingLayoutsMatchGoldens) {
  for (const PaddingGolden& g : kPaddingGoldens) {
    const Bytes msg = PaddingGoldenMessage(g.len);
    EXPECT_EQ(DigestHex(Sha256::Hash(msg)), g.sha256) << g.len;
  }
}

TEST(Sha512Test, PaddingLayoutsMatchGoldens) {
  for (const PaddingGolden& g : kPaddingGoldens) {
    const Bytes msg = PaddingGoldenMessage(g.len);
    EXPECT_EQ(DigestHex(Sha512::Hash(msg)), g.sha512) << g.len;
  }
}

// ------------------------------------------------------------- HMAC-SHA256

TEST(HmacTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const auto mac = HmacSha256::Mac(key, BytesOf("Hi There"));
  EXPECT_EQ(DigestHex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  const auto mac = HmacSha256::Mac(BytesOf("Jefe"),
                                   BytesOf("what do ya want for nothing?"));
  EXPECT_EQ(DigestHex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  const auto mac = HmacSha256::Mac(key, data);
  EXPECT_EQ(DigestHex(mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  const auto mac = HmacSha256::Mac(
      key, BytesOf("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(DigestHex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, IncrementalMatchesOneShot) {
  const Bytes key = BytesOf("k");
  const Bytes msg = BytesOf("split message");
  HmacSha256 mac(key);
  mac.Update(ByteSpan(msg.data(), 5));
  mac.Update(ByteSpan(msg.data() + 5, msg.size() - 5));
  EXPECT_EQ(mac.Finish(), HmacSha256::Mac(key, msg));
}

// ----------------------------------------------------------------- DRBG

TEST(DrbgTest, DeterministicFromSeed) {
  Drbg a(BytesOf("seed material"));
  Drbg b(BytesOf("seed material"));
  EXPECT_EQ(a.Generate(64), b.Generate(64));
}

TEST(DrbgTest, DifferentSeedsDiffer) {
  Drbg a(BytesOf("seed-a"));
  Drbg b(BytesOf("seed-b"));
  EXPECT_NE(a.Generate(32), b.Generate(32));
}

TEST(DrbgTest, SequentialOutputsDiffer) {
  Drbg d(std::uint64_t{99});
  EXPECT_NE(d.Generate(32), d.Generate(32));
}

TEST(DrbgTest, ReseedChangesStream) {
  Drbg a(std::uint64_t{7});
  Drbg b(std::uint64_t{7});
  b.Reseed(BytesOf("extra entropy"));
  EXPECT_NE(a.Generate(32), b.Generate(32));
}

TEST(DrbgTest, LargeGenerate) {
  Drbg d(std::uint64_t{1});
  const Bytes big = d.Generate(1000);
  EXPECT_EQ(big.size(), 1000u);
  // Output should not be trivially constant.
  EXPECT_NE(big[0], big[500]);
}

// --------------------------------------------------------------- ChaCha20

TEST(ChaCha20Test, Rfc8439BlockFunction) {
  ChaCha20Key key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  ChaCha20Nonce nonce = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                         0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const auto block = ChaCha20Block(key, nonce, 1);
  EXPECT_EQ(ToHex(ByteSpan(block.data(), block.size())),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20Test, Rfc8439Encryption) {
  ChaCha20Key key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  ChaCha20Nonce nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                         0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const Bytes plaintext = BytesOf(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  const Bytes ciphertext = ChaCha20Xor(key, nonce, 1, plaintext);
  EXPECT_EQ(ToHex(ciphertext),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha20Test, EncryptDecryptRoundTrip) {
  ChaCha20Key key{};
  key[0] = 0x42;
  ChaCha20Nonce nonce{};
  const Bytes plaintext = BytesOf("attack at dawn");
  const Bytes ciphertext = ChaCha20Xor(key, nonce, 0, plaintext);
  EXPECT_NE(ciphertext, plaintext);
  EXPECT_EQ(ChaCha20Xor(key, nonce, 0, ciphertext), plaintext);
}

TEST(ChaCha20Test, NonBlockAlignedLengths) {
  ChaCha20Key key{};
  ChaCha20Nonce nonce{};
  for (std::size_t len : {0u, 1u, 63u, 64u, 65u, 130u}) {
    const Bytes plaintext(len, 0x11);
    const Bytes ct = ChaCha20Xor(key, nonce, 0, plaintext);
    EXPECT_EQ(ct.size(), len);
    EXPECT_EQ(ChaCha20Xor(key, nonce, 0, ct), plaintext);
  }
}

// --------------------------------------------------------------- Poly1305

TEST(Poly1305Test, Rfc8439Vector) {
  Poly1305Key key;
  const Bytes key_bytes = MustFromHex(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  std::memcpy(key.data(), key_bytes.data(), key.size());
  const auto tag =
      Poly1305::Mac(key, BytesOf("Cryptographic Forum Research Group"));
  EXPECT_EQ(ToHex(ByteSpan(tag.data(), tag.size())),
            "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(Poly1305Test, IncrementalMatchesOneShot) {
  Poly1305Key key{};
  key[0] = 0x42;
  key[17] = 0x24;
  const Bytes msg(100, 0x5a);
  for (std::size_t split : {0u, 1u, 15u, 16u, 17u, 99u}) {
    Poly1305 mac(key);
    mac.Update(ByteSpan(msg.data(), split));
    mac.Update(ByteSpan(msg.data() + split, msg.size() - split));
    EXPECT_EQ(mac.Finish(), Poly1305::Mac(key, msg)) << split;
  }
}

TEST(Poly1305Test, DifferentKeysDifferentTags) {
  Poly1305Key k1{}, k2{};
  k1[0] = 1;
  k2[0] = 2;
  const Bytes msg = BytesOf("same message");
  EXPECT_NE(Poly1305::Mac(k1, msg), Poly1305::Mac(k2, msg));
}

// ------------------------------------------------------------------ AEAD

TEST(AeadTest, Rfc8439Vector) {
  ChaCha20Key key;
  const Bytes key_bytes = MustFromHex(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  std::memcpy(key.data(), key_bytes.data(), key.size());
  ChaCha20Nonce nonce;
  const Bytes nonce_bytes = MustFromHex("070000004041424344454647");
  std::memcpy(nonce.data(), nonce_bytes.data(), nonce.size());
  const Bytes aad = MustFromHex("50515253c0c1c2c3c4c5c6c7");
  const Bytes plaintext = BytesOf(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");

  const Bytes sealed = AeadSeal(key, nonce, plaintext, aad);
  ASSERT_EQ(sealed.size(), plaintext.size() + kPoly1305TagSize);
  EXPECT_EQ(ToHex(ByteSpan(sealed.data(), plaintext.size())),
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
            "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
            "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
            "3ff4def08e4b7a9de576d26586cec64b6116");
  EXPECT_EQ(ToHex(ByteSpan(sealed.data() + plaintext.size(),
                           kPoly1305TagSize)),
            "1ae10b594f09e26a7e902ecbd0600691");

  const auto opened = AeadOpen(key, nonce, sealed, aad);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, plaintext);
}

TEST(AeadTest, TamperedCiphertextRejected) {
  ChaCha20Key key{};
  key[5] = 9;
  ChaCha20Nonce nonce{};
  Bytes sealed = AeadSeal(key, nonce, BytesOf("payload"), BytesOf("aad"));
  sealed[2] ^= 0x01;
  EXPECT_FALSE(AeadOpen(key, nonce, sealed, BytesOf("aad")).has_value());
}

TEST(AeadTest, TamperedTagRejected) {
  ChaCha20Key key{};
  ChaCha20Nonce nonce{};
  Bytes sealed = AeadSeal(key, nonce, BytesOf("payload"));
  sealed.back() ^= 0x80;
  EXPECT_FALSE(AeadOpen(key, nonce, sealed).has_value());
}

TEST(AeadTest, WrongAadRejected) {
  ChaCha20Key key{};
  ChaCha20Nonce nonce{};
  const Bytes sealed = AeadSeal(key, nonce, BytesOf("payload"),
                                BytesOf("context-A"));
  EXPECT_FALSE(AeadOpen(key, nonce, sealed, BytesOf("context-B")).has_value());
  EXPECT_TRUE(AeadOpen(key, nonce, sealed, BytesOf("context-A")).has_value());
}

TEST(AeadTest, EmptyPlaintextAndAad) {
  ChaCha20Key key{};
  ChaCha20Nonce nonce{};
  const Bytes sealed = AeadSeal(key, nonce, {});
  EXPECT_EQ(sealed.size(), kPoly1305TagSize);
  const auto opened = AeadOpen(key, nonce, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->empty());
  // Too-short input refused.
  EXPECT_FALSE(AeadOpen(key, nonce, Bytes(8, 0)).has_value());
}

// ------------------------------------------------------------ field arith

TEST(Fe25519Test, AddSubInverse) {
  const Fe a = FeFromU64(123456789);
  const Fe b = FeFromU64(987654321);
  EXPECT_TRUE(FeEqual(FeSub(FeAdd(a, b), b), a));
}

TEST(Fe25519Test, MulByOneIsIdentity) {
  const Fe a = FeFromU64(0xdeadbeefcafeULL);
  EXPECT_TRUE(FeEqual(FeMul(a, FeOne()), a));
}

TEST(Fe25519Test, MulCommutes) {
  const Fe a = FeFromU64(1234567);
  const Fe b = FeFromU64(7654321);
  EXPECT_TRUE(FeEqual(FeMul(a, b), FeMul(b, a)));
}

TEST(Fe25519Test, InvertIsMultiplicativeInverse) {
  const Fe a = FeFromU64(314159265358979ULL);
  EXPECT_TRUE(FeEqual(FeMul(a, FeInvert(a)), FeOne()));
}

TEST(Fe25519Test, SquareMatchesMul) {
  const Fe a = FeFromU64(271828182845ULL);
  EXPECT_TRUE(FeEqual(FeSquare(a), FeMul(a, a)));
}

TEST(Fe25519Test, NegIsAdditiveInverse) {
  const Fe a = FeFromU64(42);
  EXPECT_TRUE(FeIsZero(FeAdd(a, FeNeg(a))));
}

TEST(Fe25519Test, SqrtM1SquaresToMinusOne) {
  const Fe& s = FeConstSqrtM1();
  EXPECT_TRUE(FeEqual(FeSquare(s), FeNeg(FeOne())));
}

TEST(Fe25519Test, BytesRoundTrip) {
  const Fe a = FeFromU64(0x123456789abcdefULL);
  const auto bytes = FeToBytes(a);
  const Fe back = FeFromBytes(ByteSpan(bytes.data(), bytes.size()));
  EXPECT_TRUE(FeEqual(a, back));
}

TEST(Fe25519Test, CanonicalEncodingOfPMinusOne) {
  // p - 1 = 2^255 - 20 must encode canonically (not wrap).
  Fe p_minus_1 = FeNeg(FeOne());
  const auto bytes = FeToBytes(p_minus_1);
  EXPECT_EQ(bytes[0], 0xec);
  EXPECT_EQ(bytes[31], 0x7f);
}

TEST(Fe25519Test, ZeroEncodesToZeroBytes) {
  const auto bytes = FeToBytes(FeZero());
  for (auto b : bytes) EXPECT_EQ(b, 0);
}

TEST(Fe25519Test, DConstantMatchesRfc) {
  // d = 370957059346694393431380835087545651895421138798432190163887855330
  // 85940283555; canonical little-endian encoding from RFC 8032.
  const auto bytes = FeToBytes(FeConstD());
  EXPECT_EQ(ToHex(ByteSpan(bytes.data(), bytes.size())),
            "a3785913ca4deb75abd841414d0a700098e879777940c78c73fe6f2bee6c0352");
}

TEST(Fe25519Test, PowMatchesInvert) {
  // The two exponentiation chains agree: a^(p-2) = a^(2^255 - 21) =
  // (a^(2^252 - 3))^8 * a^3.
  const Fe a = FeFromU64(9999999937ULL);
  Fe pow = FePow22523(a);
  for (int i = 0; i < 3; ++i) pow = FeSquare(pow);
  EXPECT_TRUE(FeEqual(FeMul(pow, FeMul(FeSquare(a), a)), FeInvert(a)));
  EXPECT_TRUE(FeEqual(FeMul(a, FeInvert(a)), FeOne()));
}

// Limb-bound stress: feed every operation the worst-case limbs its
// contract in fe25519.h allows and compare with schoolbook big-integer
// arithmetic mod p.

using Big = std::array<std::uint64_t, 10>;  // 640-bit little-endian

Big BigFromLimbs(const Fe& f) {
  Big out{};
  for (int i = 0; i < 5; ++i) {
    const int bit = 51 * i;
    unsigned __int128 carry = (unsigned __int128)f.v[i] << (bit % 64);
    for (int w = bit / 64; w < 10; ++w) {
      carry += out[w];
      out[w] = static_cast<std::uint64_t>(carry);
      carry >>= 64;
    }
  }
  return out;
}

Big BigMul(const Big& a, const Big& b) {
  Big out{};
  for (int i = 0; i < 5; ++i) {
    unsigned __int128 carry = 0;
    for (int j = 0; j < 5; ++j) {
      carry += (unsigned __int128)a[i] * b[j] + out[i + j];
      out[i + j] = static_cast<std::uint64_t>(carry);
      carry >>= 64;
    }
    out[i + 5] = static_cast<std::uint64_t>(carry);
  }
  return out;
}

// x mod p as 32 little-endian bytes, folding 2^255 == 19.
std::array<std::uint8_t, 32> BigModP(Big x) {
  for (;;) {
    Big hi{};
    for (int w = 0; w < 6; ++w) hi[w] = (x[w + 3] >> 63) | (x[w + 4] << 1);
    hi[6] = x[9] >> 63;
    x[3] &= ~(std::uint64_t{1} << 63);
    for (int w = 4; w < 10; ++w) x[w] = 0;
    bool zero = true;
    for (auto w : hi) zero = zero && w == 0;
    if (zero) break;
    unsigned __int128 carry = 0;
    for (int w = 0; w < 10; ++w) {
      carry += (unsigned __int128)hi[w] * 19 + x[w];
      x[w] = static_cast<std::uint64_t>(carry);
      carry >>= 64;
    }
  }
  // x < 2^255; subtract p = 2^255 - 19 once if x >= p.
  const bool ge_p = x[3] == 0x7fffffffffffffffULL && x[2] == ~0ULL &&
                    x[1] == ~0ULL && x[0] >= 0xffffffffffffffedULL;
  if (ge_p) {
    x[0] -= 0xffffffffffffffedULL;
    x[1] = x[2] = x[3] = 0;
  }
  std::array<std::uint8_t, 32> out;
  std::memcpy(out.data(), x.data(), 32);
  return out;
}

Big BigAdd(const Big& a, const Big& b) {
  Big out{};
  unsigned __int128 carry = 0;
  for (int w = 0; w < 10; ++w) {
    carry += (unsigned __int128)a[w] + b[w];
    out[w] = static_cast<std::uint64_t>(carry);
    carry >>= 64;
  }
  return out;
}

Fe FeAllLimbs(std::uint64_t v) { return Fe{{v, v, v, v, v}}; }

bool LimbsBelow(const Fe& f, std::uint64_t bound) {
  for (auto v : f.v) {
    if (v >= bound) return false;
  }
  return true;
}

TEST(Fe25519Test, WorstCaseLimbsMatchBigIntegerOracle) {
  constexpr std::uint64_t kMulMax = (std::uint64_t{1} << 54) - 1;
  constexpr std::uint64_t kReducedBound =
      (std::uint64_t{1} << 51) + (std::uint64_t{1} << 15);
  constexpr std::uint64_t kLooseBound =
      (std::uint64_t{1} << 53) - (std::uint64_t{1} << 7);
  // 4p, the multiple of p FeSub adds, in bytes for the oracle.
  const Big four_p = BigFromLimbs(Fe{{4 * ((std::uint64_t{1} << 51) - 19),
                                      4 * ((std::uint64_t{1} << 51) - 1),
                                      4 * ((std::uint64_t{1} << 51) - 1),
                                      4 * ((std::uint64_t{1} << 51) - 1),
                                      4 * ((std::uint64_t{1} << 51) - 1)}});
  Rng rng(54);
  std::vector<Fe> wide = {FeAllLimbs(kMulMax), FeAllLimbs(kLooseBound - 1),
                          FeAllLimbs(kReducedBound - 1), FeZero()};
  for (int i = 0; i < 200; ++i) {
    Fe f;
    for (auto& v : f.v) v = rng.NextU64() & kMulMax;
    wide.push_back(f);
  }
  for (const Fe& f : wide) {
    const Big bf = BigFromLimbs(f);
    const Fe sq = FeSquare(f);
    EXPECT_TRUE(LimbsBelow(sq, kReducedBound));
    EXPECT_EQ(FeToBytes(sq), BigModP(BigMul(bf, bf)));
    for (const Fe& g : {wide[0], wide[1], wide[3], wide.back()}) {
      const Fe m = FeMul(f, g);
      EXPECT_TRUE(LimbsBelow(m, kReducedBound));
      EXPECT_EQ(FeToBytes(m), BigModP(BigMul(bf, BigFromLimbs(g))));
    }
    // FeSub: f < 2^54, g loose.
    for (const Fe& g : {FeAllLimbs(kLooseBound - 1), FeZero()}) {
      const Fe d = FeSub(f, g);
      EXPECT_TRUE(LimbsBelow(d, kReducedBound));
      // f - g == f + 4p - g; compare (f + 4p) with g + (f - g).
      EXPECT_EQ(BigModP(BigAdd(bf, four_p)),
                BigModP(BigAdd(BigFromLimbs(g), BigFromLimbs(d))));
    }
  }
  // FeAdd of two worst-case reduced elements stays loose, and FeNeg
  // accepts the result.
  const Fe r = FeAllLimbs(kReducedBound - 1);
  const Fe sum = FeAdd(r, r);
  EXPECT_TRUE(LimbsBelow(sum, kLooseBound));
  EXPECT_EQ(FeToBytes(sum), BigModP(BigAdd(BigFromLimbs(r), BigFromLimbs(r))));
  const Fe neg = FeNeg(sum);
  EXPECT_TRUE(LimbsBelow(neg, kReducedBound));
  EXPECT_EQ(FeToBytes(FeNeg(neg)), FeToBytes(sum));
  // FeToBytes accepts any limbs < 2^63.
  const Fe huge = FeAllLimbs((std::uint64_t{1} << 63) - 1);
  EXPECT_EQ(FeToBytes(huge), BigModP(BigFromLimbs(huge)));
}

// ------------------------------------------------------------ scalar arith

TEST(Sc25519Test, ZeroIsZero) {
  EXPECT_TRUE(ScIsZero(ScZero()));
  EXPECT_FALSE(ScIsZero(ScFromBytesModL(BytesOf("x"))));
}

TEST(Sc25519Test, ReduceOfLIsZero) {
  // L itself reduces to zero.
  const Bytes l_bytes = MustFromHex(
      "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  EXPECT_TRUE(ScIsZero(ScFromBytesModL(l_bytes)));
}

TEST(Sc25519Test, SmallValuePassesThrough) {
  Bytes b(32, 0);
  b[0] = 42;
  const Scalar s = ScFromBytesModL(b);
  EXPECT_EQ(ScToBytes(s)[0], 42);
  for (int i = 1; i < 32; ++i) EXPECT_EQ(ScToBytes(s)[i], 0);
}

TEST(Sc25519Test, AddWrapsModL) {
  // (L - 1) + 2 == 1 mod L.
  const Bytes l_minus_1 = MustFromHex(
      "ecd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  Bytes two(32, 0);
  two[0] = 2;
  const Scalar r = ScAdd(ScFromBytesModL(l_minus_1), ScFromBytesModL(two));
  auto bytes = ScToBytes(r);
  EXPECT_EQ(bytes[0], 1);
  for (int i = 1; i < 32; ++i) EXPECT_EQ(bytes[i], 0);
}

TEST(Sc25519Test, MulAddSmallValues) {
  Bytes a(32, 0), b(32, 0), c(32, 0);
  a[0] = 7;
  b[0] = 6;
  c[0] = 5;
  const Scalar r =
      ScMulAdd(ScFromBytesModL(a), ScFromBytesModL(b), ScFromBytesModL(c));
  EXPECT_EQ(ScToBytes(r)[0], 47);
}

TEST(Sc25519Test, CanonicalityCheck) {
  const Bytes l_bytes = MustFromHex(
      "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  EXPECT_FALSE(ScIsCanonical(l_bytes));
  const Bytes l_minus_1 = MustFromHex(
      "ecd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  EXPECT_TRUE(ScIsCanonical(l_minus_1));
  Bytes zero(32, 0);
  EXPECT_TRUE(ScIsCanonical(zero));
  EXPECT_FALSE(ScIsCanonical(Bytes(31, 0)));  // wrong length
}

// ------------------------------------------------------------- group ops

TEST(Ge25519Test, BasePointIsValid) {
  EXPECT_TRUE(GeIsValid(GeBasePoint()));
}

TEST(Ge25519Test, IdentityIsValid) {
  EXPECT_TRUE(GeIsValid(GeIdentity()));
}

TEST(Ge25519Test, AddIdentityIsNoOp) {
  const GePoint& b = GeBasePoint();
  EXPECT_TRUE(GeEqual(GeAdd(b, GeIdentity()), b));
}

TEST(Ge25519Test, DoubleMatchesAdd) {
  const GePoint& b = GeBasePoint();
  EXPECT_TRUE(GeEqual(GeDouble(b), GeAdd(b, b)));
}

TEST(Ge25519Test, AddCommutes) {
  const GePoint& b = GeBasePoint();
  const GePoint b2 = GeDouble(b);
  EXPECT_TRUE(GeEqual(GeAdd(b, b2), GeAdd(b2, b)));
}

TEST(Ge25519Test, AddAssociates) {
  const GePoint& b = GeBasePoint();
  const GePoint b2 = GeDouble(b);
  const GePoint b4 = GeDouble(b2);
  EXPECT_TRUE(GeEqual(GeAdd(GeAdd(b, b2), b4), GeAdd(b, GeAdd(b2, b4))));
}

TEST(Ge25519Test, OrderOfBasePointIsL) {
  // [L]B == identity.
  std::array<std::uint8_t, 32> l_le{};
  const Bytes l_bytes = MustFromHex(
      "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  std::memcpy(l_le.data(), l_bytes.data(), 32);
  const GePoint p = GeScalarMultBase(l_le);
  EXPECT_TRUE(GeEqual(p, GeIdentity()));
}

TEST(Ge25519Test, ScalarMultByOneAndTwo) {
  std::array<std::uint8_t, 32> one{};
  one[0] = 1;
  std::array<std::uint8_t, 32> two{};
  two[0] = 2;
  EXPECT_TRUE(GeEqual(GeScalarMultBase(one), GeBasePoint()));
  EXPECT_TRUE(GeEqual(GeScalarMultBase(two), GeDouble(GeBasePoint())));
}

TEST(Ge25519Test, ScalarMultDistributes) {
  // [3]B == [2]B + B.
  std::array<std::uint8_t, 32> three{};
  three[0] = 3;
  EXPECT_TRUE(GeEqual(GeScalarMultBase(three),
                      GeAdd(GeDouble(GeBasePoint()), GeBasePoint())));
}

TEST(Ge25519Test, CompressDecompressRoundTrip) {
  std::array<std::uint8_t, 32> k{};
  k[0] = 0x37;
  k[5] = 0x99;
  const GePoint p = GeScalarMultBase(k);
  const auto enc = GeCompress(p);
  const auto q = GeDecompress(ByteSpan(enc.data(), enc.size()));
  ASSERT_TRUE(q.has_value());
  EXPECT_TRUE(GeEqual(p, *q));
}

TEST(Ge25519Test, DecompressRejectsNonCurvePoint) {
  // y = 2 gives x^2 = 3/(4d+1); overwhelmingly not a square for most
  // small y; this particular value is a known non-point.
  Bytes enc(32, 0);
  enc[0] = 0x02;
  int failures = 0;
  for (std::uint8_t y = 2; y < 12; ++y) {
    enc[0] = y;
    if (!GeDecompress(enc).has_value()) ++failures;
  }
  EXPECT_GT(failures, 0);
}

TEST(Ge25519Test, BasePointEncodingMatchesRfc) {
  const auto enc = GeCompress(GeBasePoint());
  EXPECT_EQ(ToHex(ByteSpan(enc.data(), enc.size())),
            "5866666666666666666666666666666666666666666666666666666666666666");
}

TEST(Ge25519Test, ScalarMultBaseMatchesLadder) {
  std::vector<std::array<std::uint8_t, 32>> scalars;
  std::array<std::uint8_t, 32> k{};
  scalars.push_back(k);  // 0
  k.fill(0xff);
  k[0] = 0xf8;
  k[31] = 0x7f;
  scalars.push_back(k);  // largest clamped scalar, 2^255 - 8
  Rng rng(255);
  for (int i = 0; i < 24; ++i) {
    for (auto& b : k) b = static_cast<std::uint8_t>(rng.NextU64());
    k[31] &= 0x7f;
    scalars.push_back(k);
  }
  for (const auto& s : scalars) {
    EXPECT_TRUE(
        GeEqual(GeScalarMultBase(s), oracle::LadderMult(GeBasePoint(), s)))
        << ToHex(ByteSpan(s.data(), 32));
  }
}

TEST(Ge25519Test, DoubleScalarMultMatchesLadder) {
  Rng rng(253);
  auto random_scalar = [&] {
    std::array<std::uint8_t, 32> k;
    for (auto& b : k) b = static_cast<std::uint8_t>(rng.NextU64());
    k[31] &= 0x1f;  // below 2^253
    return k;
  };
  std::vector<GePoint> points = {GeIdentity(), GeBasePoint(),
                                 *GeDecompress(MustFromHex(kOrder8[2]))};
  for (int i = 0; i < 4; ++i) points.push_back(GeScalarMultBase(random_scalar()));
  std::array<std::uint8_t, 32> zero{};
  for (const GePoint& a : points) {
    for (int i = 0; i < 4; ++i) {
      const auto ka = i == 0 ? zero : random_scalar();
      const auto kb = i == 1 ? zero : random_scalar();
      const GePoint expect = GeAdd(oracle::LadderMult(a, ka),
                                   oracle::LadderMult(GeBasePoint(), kb));
      EXPECT_TRUE(GeEqual(
          GeDoubleScalarMultVartime(GeOddMultiplesOf(a), ka, kb), expect));
    }
  }
}

TEST(Ge25519Test, Radix16RecodingRoundTrips) {
  std::vector<std::array<std::uint8_t, 32>> scalars;
  std::array<std::uint8_t, 32> k{};
  scalars.push_back(k);  // 0
  k[0] = 1;
  scalars.push_back(k);  // 1
  const Bytes l_minus_1 = MustFromHex(kLHex);
  std::memcpy(k.data(), l_minus_1.data(), 32);
  k[0] -= 1;
  scalars.push_back(k);  // L - 1
  k.fill(0xff);
  k[0] = 0xf8;
  k[31] = 0x7f;
  scalars.push_back(k);  // largest clamped scalar
  k.fill(0xff);
  k[31] = 0x7f;
  scalars.push_back(k);  // 2^255 - 1
  Rng rng(16);
  for (int i = 0; i < 100; ++i) {
    for (auto& b : k) b = static_cast<std::uint8_t>(rng.NextU64());
    k[31] &= 0x7f;
    scalars.push_back(k);
  }
  for (const auto& s : scalars) {
    const auto e = GeRadix16(s);
    for (int i = 0; i < 63; ++i) {
      EXPECT_GE(e[i], -8);
      EXPECT_LT(e[i], 8);
    }
    EXPECT_GE(e[63], 0);
    EXPECT_LE(e[63], 8);
    // Re-normalise sum e[i] 16^i into nibbles.
    std::array<std::uint8_t, 32> back{};
    int carry = 0;
    for (int i = 0; i < 64; ++i) {
      const int v = e[i] + carry;
      const int nibble = v & 15;
      carry = (v - nibble) / 16;
      back[i / 2] |= static_cast<std::uint8_t>(nibble << (4 * (i % 2)));
    }
    EXPECT_EQ(carry, 0);
    EXPECT_EQ(back, s);
  }
}

TEST(Ge25519Test, BaseTableLookupSelectsEveryDigit) {
  GePoint row_base = GeBasePoint();  // 16^(2 pos) B
  for (int pos = 0; pos < 32; ++pos) {
    GePoint multiple = GeIdentity();
    EXPECT_TRUE(GeEqual(GeBaseTableLookup(pos, 0), GeIdentity()));
    for (std::int8_t d = 1; d <= 8; ++d) {
      multiple = GeAdd(multiple, row_base);
      EXPECT_TRUE(GeEqual(GeBaseTableLookup(pos, d), multiple))
          << pos << " " << int{d};
      const GePoint minus = GeBaseTableLookup(pos, static_cast<std::int8_t>(-d));
      EXPECT_TRUE(GeEqual(GeAdd(minus, multiple), GeIdentity()))
          << pos << " " << -int{d};
    }
    for (int i = 0; i < 8; ++i) row_base = GeDouble(row_base);
  }
}

TEST(Ge25519Test, NegIsAdditiveInverse) {
  const GePoint b3 = GeAdd(GeDouble(GeBasePoint()), GeBasePoint());
  EXPECT_TRUE(GeEqual(GeAdd(b3, GeNeg(b3)), GeIdentity()));
  EXPECT_TRUE(GeIsValid(GeNeg(b3)));
}

// --------------------------------------------------------------- Ed25519

struct Rfc8032Vector {
  const char* secret;
  const char* public_key;
  const char* message;
  const char* signature;
};

// gtest would otherwise print the four pointers into the test name,
// and they move with every load of the binary.
void PrintTo(const Rfc8032Vector& v, std::ostream* os) {
  *os << "pk_" << std::string(v.public_key).substr(0, 16);
}

class Ed25519VectorTest : public ::testing::TestWithParam<Rfc8032Vector> {};

TEST_P(Ed25519VectorTest, SignMatchesVector) {
  const auto& v = GetParam();
  std::array<std::uint8_t, 32> seed;
  const Bytes seed_bytes = MustFromHex(v.secret);
  std::memcpy(seed.data(), seed_bytes.data(), 32);
  const KeyPair kp = KeyPair::FromSeed(seed);
  EXPECT_EQ(ToHex(ByteSpan(kp.public_key().bytes.data(), 32)), v.public_key);
  const Bytes message = MustFromHex(v.message);
  const Signature sig = kp.Sign(message);
  EXPECT_EQ(ToHex(ByteSpan(sig.bytes.data(), 64)), v.signature);
  EXPECT_TRUE(Verify(kp.public_key(), message, sig));
}

INSTANTIATE_TEST_SUITE_P(
    Rfc8032, Ed25519VectorTest,
    ::testing::Values(
        Rfc8032Vector{
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
            "",
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
            "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
        Rfc8032Vector{
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
            "72",
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
            "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
        Rfc8032Vector{
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
            "af82",
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
            "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"},
        Rfc8032Vector{
            "833fe62409237b9d62ec77587520911e9a759cec1d19755b7da901b96dca3d42",
            "ec172b93ad5e563bf4932c70e1245034c35467ef2efd4d64ebf819683467e2bf",
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f",
            "dc2a4459e7369633a52b1bf277839a00201009a3efbf3ecb69bea2186c26b589"
            "09351fc9ac90b3ecfdfbc7c66431e0303dca179c138ac17ad9bef1177331a704"}));

TEST(Ed25519Test, SignVerifyRoundTrip) {
  Drbg drbg(std::uint64_t{2026});
  const KeyPair kp = KeyPair::Generate(drbg);
  const Bytes msg = BytesOf("vegvisir block payload");
  const Signature sig = kp.Sign(msg);
  EXPECT_TRUE(Verify(kp.public_key(), msg, sig));
}

TEST(Ed25519Test, TamperedMessageFailsVerify) {
  Drbg drbg(std::uint64_t{2027});
  const KeyPair kp = KeyPair::Generate(drbg);
  const Bytes msg = BytesOf("original");
  const Signature sig = kp.Sign(msg);
  EXPECT_FALSE(Verify(kp.public_key(), BytesOf("originaX"), sig));
}

TEST(Ed25519Test, TamperedSignatureFailsVerify) {
  Drbg drbg(std::uint64_t{2028});
  const KeyPair kp = KeyPair::Generate(drbg);
  const Bytes msg = BytesOf("message");
  Signature sig = kp.Sign(msg);
  sig.bytes[3] ^= 0x01;
  EXPECT_FALSE(Verify(kp.public_key(), msg, sig));
  sig.bytes[3] ^= 0x01;
  sig.bytes[40] ^= 0x80;  // flip a bit in s
  EXPECT_FALSE(Verify(kp.public_key(), msg, sig));
}

TEST(Ed25519Test, WrongKeyFailsVerify) {
  Drbg drbg(std::uint64_t{2029});
  const KeyPair kp1 = KeyPair::Generate(drbg);
  const KeyPair kp2 = KeyPair::Generate(drbg);
  ASSERT_NE(kp1.public_key(), kp2.public_key());
  const Bytes msg = BytesOf("message");
  EXPECT_FALSE(Verify(kp2.public_key(), msg, kp1.Sign(msg)));
}

TEST(Ed25519Test, NonCanonicalSRejected) {
  Drbg drbg(std::uint64_t{2030});
  const KeyPair kp = KeyPair::Generate(drbg);
  const Bytes msg = BytesOf("message");
  Signature sig = kp.Sign(msg);
  // Force s >= L by setting the top word region to all-ones.
  for (int i = 32; i < 64; ++i) sig.bytes[i] = 0xff;
  EXPECT_FALSE(Verify(kp.public_key(), msg, sig));
}

TEST(Ed25519Test, DeterministicSignatures) {
  Drbg drbg(std::uint64_t{2031});
  const KeyPair kp = KeyPair::Generate(drbg);
  const Bytes msg = BytesOf("same message");
  EXPECT_EQ(kp.Sign(msg).bytes, kp.Sign(msg).bytes);
}

TEST(Ed25519Test, GenerateProducesDistinctKeys) {
  Drbg drbg(std::uint64_t{2032});
  const KeyPair a = KeyPair::Generate(drbg);
  const KeyPair b = KeyPair::Generate(drbg);
  EXPECT_NE(a.public_key(), b.public_key());
}

TEST(Ed25519Test, ManyRandomRoundTrips) {
  Drbg drbg(std::uint64_t{2033});
  for (int i = 0; i < 8; ++i) {
    const KeyPair kp = KeyPair::Generate(drbg);
    const Bytes msg = drbg.Generate(1 + i * 17);
    const Signature sig = kp.Sign(msg);
    EXPECT_TRUE(Verify(kp.public_key(), msg, sig)) << i;
  }
}

// ------------------------------------------------ verdict pinning
//
// These tests pin Verify's accept/reject decisions, not just its
// behaviour on honest signatures: the golden table below was computed
// with the original bit-serial implementation, so any fast path must
// reproduce every verdict, including the cofactorless treatment of
// small-order and mixed-order points and the acceptance of
// non-canonical y encodings.

KeyPair SeededKey(std::uint8_t fill) {
  std::array<std::uint8_t, kEd25519SeedSize> seed;
  seed.fill(fill);
  return KeyPair::FromSeed(seed);
}

// A and R candidates: identity, order 2, both order 4, all order 8,
// non-canonical y = p and y = p + 1, identity with the sign bit set
// (invalid), the base point, four mixed-order [a]B + T8 keys and four
// honest keys.
std::vector<Bytes> EdgeEncodings() {
  std::vector<Bytes> out;
  for (const char* hex : {
           "0100000000000000000000000000000000000000000000000000000000000000",
           "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
           "0000000000000000000000000000000000000000000000000000000000000000",
           "0000000000000000000000000000000000000000000000000000000000000080",
       }) {
    out.push_back(MustFromHex(hex));
  }
  for (const char* hex : kOrder8) out.push_back(MustFromHex(hex));
  for (const char* hex : {
           "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
           "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
           "0100000000000000000000000000000000000000000000000000000000000080",
           "5866666666666666666666666666666666666666666666666666666666666666",
       }) {
    out.push_back(MustFromHex(hex));
  }
  const GePoint t8 = *GeDecompress(MustFromHex(kOrder8[0]));
  for (std::uint8_t i = 0; i < 4; ++i) {
    const PublicKey pk = SeededKey(0x10 + i).public_key();
    const GePoint a = *GeDecompress(ByteSpan(pk.bytes.data(), 32));
    const auto enc = GeCompress(GeAdd(a, t8));
    out.emplace_back(enc.begin(), enc.end());
  }
  for (std::uint8_t i = 0; i < 4; ++i) {
    const PublicKey pk = SeededKey(0x20 + i).public_key();
    out.emplace_back(pk.bytes.begin(), pk.bytes.end());
  }
  return out;
}

// s candidates: 0, 1, L - 1, L (non-canonical) and four fixed values
// below 2^252.
std::vector<Bytes> EdgeScalars() {
  std::vector<Bytes> out;
  out.emplace_back(32, 0);
  out.emplace_back(32, 0);
  out.back()[0] = 1;
  out.push_back(MustFromHex(kLHex));
  out.back()[0] -= 1;
  out.push_back(MustFromHex(kLHex));
  for (char i = '0'; i < '4'; ++i) {
    const auto d = Sha256::Hash(BytesOf(std::string("verdict-s-") + i));
    out.emplace_back(d.begin(), d.end());
    out.back()[31] &= 0x0f;
  }
  return out;
}

TEST(Ed25519VerdictTest, EdgeEncodingsHaveTheirStatedOrder) {
  auto order_at_most = [](GePoint p, int log2_order) {
    for (int i = 0; i < log2_order; ++i) p = GeDouble(p);
    return GeEqual(p, GeIdentity());
  };
  const auto enc = EdgeEncodings();
  ASSERT_EQ(enc.size(), 20u);
  EXPECT_TRUE(order_at_most(*GeDecompress(enc[0]), 0));
  EXPECT_TRUE(order_at_most(*GeDecompress(enc[1]), 1));
  for (int i = 2; i < 4; ++i) {
    const GePoint p = *GeDecompress(enc[i]);
    EXPECT_TRUE(order_at_most(p, 2) && !order_at_most(p, 1)) << i;
  }
  for (int i = 4; i < 8; ++i) {
    const GePoint p = *GeDecompress(enc[i]);
    EXPECT_TRUE(order_at_most(p, 3) && !order_at_most(p, 2)) << i;
  }
  // y = p decodes to the order-4 point, y = p + 1 to the identity.
  EXPECT_TRUE(GeEqual(*GeDecompress(enc[8]), *GeDecompress(enc[2])));
  EXPECT_TRUE(GeEqual(*GeDecompress(enc[9]), GeIdentity()));
  EXPECT_FALSE(GeDecompress(enc[10]).has_value());
}

TEST(Ed25519VerdictTest, CrossProductMatchesGoldenTable) {
  // Bit (a * 20 + r) * 8 + s, little-endian within each byte.
  static constexpr const char* kGolden =
      "0100000000000000000100020000000000000000000100000000000000010002"
      "0000000000000000000000010000000000000000000000000000000000000101"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000001000000000100000000000000000000000000000000010000000100"
      "0001000000000000000000000000010000010001000000020000000000000000"
      "0100000000000000000000000000000000000000010000000000000000010002"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "00000000000000000000000000000000";
  const auto points = EdgeEncodings();
  const auto scalars = EdgeScalars();
  const Bytes msg = BytesOf("vegvisir verdict table");
  Bytes bits((points.size() * points.size() * scalars.size() + 7) / 8, 0);
  std::size_t idx = 0, accepted = 0;
  for (const Bytes& a : points) {
    PublicKey pk;
    std::memcpy(pk.bytes.data(), a.data(), 32);
    // One prepared key serves all 160 (R, s) pairs under this A.
    const PreparedKey prepared = PrepareKey(pk);
    for (const Bytes& r : points) {
      for (const Bytes& s : scalars) {
        Signature sig;
        std::memcpy(sig.bytes.data(), r.data(), 32);
        std::memcpy(sig.bytes.data() + 32, s.data(), 32);
        const bool verdict = Verify(pk, msg, sig);
        EXPECT_EQ(Verify(prepared, msg, sig), verdict) << idx;
        if (verdict) {
          bits[idx / 8] |= static_cast<std::uint8_t>(1u << (idx % 8));
          ++accepted;
        }
        ++idx;
      }
    }
  }
  EXPECT_EQ(ToHex(bits), kGolden);
  EXPECT_EQ(accepted, 22u);
}

TEST(Ed25519PreparedKeyTest, UndecodableKeyVerifiesNothing) {
  // Identity with the sign bit set is not a point encoding; nor is a
  // y with no square root for x.
  const KeyPair kp = SeededKey(0x33);
  const Bytes msg = BytesOf("message");
  const Signature sig = kp.Sign(msg);
  for (const char* hex : {
           "0100000000000000000000000000000000000000000000000000000000000080",
           "0200000000000000000000000000000000000000000000000000000000000000",
       }) {
    PublicKey pk;
    const Bytes enc = MustFromHex(hex);
    std::memcpy(pk.bytes.data(), enc.data(), 32);
    ASSERT_FALSE(GeDecompress(enc).has_value()) << hex;
    const PreparedKey prepared = PrepareKey(pk);
    EXPECT_FALSE(prepared.valid) << hex;
    EXPECT_EQ(prepared.public_key, pk);
    EXPECT_FALSE(Verify(prepared, msg, sig)) << hex;
    EXPECT_FALSE(Verify(pk, msg, sig)) << hex;
  }
  const PreparedKey honest = PrepareKey(kp.public_key());
  EXPECT_TRUE(honest.valid);
  EXPECT_TRUE(Verify(honest, msg, sig));
}

TEST(Ed25519DifferentialTest, VerifyMatchesLadderOracle) {
  // 3,000 (pk, msg, sig) triples: two thirds honest, one third with
  // the signature, key or message tampered or swapped for an edge
  // encoding.
  Rng rng(0xed25519);
  std::vector<KeyPair> keys;
  for (std::uint8_t i = 0; i < 48; ++i) keys.push_back(SeededKey(0x40 + i));
  const auto edges = EdgeEncodings();
  int accepted = 0;
  for (int i = 0; i < 3000; ++i) {
    const KeyPair& kp = keys[rng.NextBelow(keys.size())];
    Bytes msg(rng.NextBelow(80));
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.NextU64());
    Signature sig = kp.Sign(msg);
    PublicKey pk = kp.public_key();
    if (i % 3 == 0) {
      const auto bit = static_cast<std::uint8_t>(1u << rng.NextBelow(8));
      switch (rng.NextBelow(6)) {
        case 0: sig.bytes[rng.NextBelow(32)] ^= bit; break;
        case 1: sig.bytes[32 + rng.NextBelow(32)] ^= bit; break;
        case 2: pk.bytes[rng.NextBelow(32)] ^= bit; break;
        case 3: msg.push_back(bit); break;
        case 4: {
          const Bytes& e = edges[rng.NextBelow(edges.size())];
          std::memcpy(sig.bytes.data(), e.data(), 32);
          break;
        }
        default: {
          const Bytes& e = edges[rng.NextBelow(edges.size())];
          std::memcpy(pk.bytes.data(), e.data(), 32);
          break;
        }
      }
    }
    const bool got = Verify(pk, msg, sig);
    ASSERT_EQ(got, oracle::LadderVerify(pk.bytes, msg, sig.bytes))
        << "case " << i;
    ASSERT_EQ(Verify(PrepareKey(pk), msg, sig), got) << "case " << i;
    accepted += got ? 1 : 0;
  }
  EXPECT_EQ(accepted, 2000);
}

// ------------------------------------------- scalar reduction oracle

// x mod L by shift-and-subtract, one bit at a time: slow and obvious.
std::array<std::uint8_t, 32> BitSerialModL(const std::uint8_t in[64]) {
  const Bytes l = MustFromHex(kLHex);
  std::uint64_t lw[4], r[4] = {0, 0, 0, 0};
  std::memcpy(lw, l.data(), 32);
  for (int bit = 511; bit >= 0; --bit) {
    for (int i = 3; i > 0; --i) r[i] = (r[i] << 1) | (r[i - 1] >> 63);
    r[0] = (r[0] << 1) | ((in[bit / 8] >> (bit % 8)) & 1);
    bool ge = true;
    for (int i = 3; i >= 0; --i) {
      if (r[i] != lw[i]) {
        ge = r[i] > lw[i];
        break;
      }
    }
    if (!ge) continue;
    unsigned __int128 borrow = 0;
    for (int i = 0; i < 4; ++i) {
      const unsigned __int128 d = (unsigned __int128)r[i] - lw[i] - borrow;
      r[i] = static_cast<std::uint64_t>(d);
      borrow = (d >> 64) & 1;
    }
  }
  std::array<std::uint8_t, 32> out;
  std::memcpy(out.data(), r, 32);
  return out;
}

TEST(Sc25519Test, ReductionMatchesBitSerialOracle) {
  std::vector<Bytes> inputs;
  const Bytes l = MustFromHex(kLHex);
  Bytes x(64, 0);
  std::memcpy(x.data(), l.data(), 32);
  inputs.push_back(x);  // L
  x[0] -= 1;
  inputs.push_back(x);  // L - 1
  x.assign(64, 0);
  unsigned carry = 0;
  for (int i = 0; i < 32; ++i) {  // 2L
    const unsigned v = 2u * l[i] + carry;
    x[i] = static_cast<std::uint8_t>(v);
    carry = v >> 8;
  }
  inputs.push_back(x);
  inputs.emplace_back(64, 0xff);  // 2^512 - 1
  inputs.emplace_back(64, 0);
  Rng rng(512);
  for (int i = 0; i < 10000; ++i) {
    Bytes r(64);
    for (auto& b : r) b = static_cast<std::uint8_t>(rng.NextU64());
    inputs.push_back(std::move(r));
  }
  for (const Bytes& in : inputs) {
    ASSERT_EQ(ScToBytes(ScFromBytesModL(in)), BitSerialModL(in.data()))
        << ToHex(in);
  }
}

TEST(Sc25519Test, MulAddMatchesBitSerialOracle) {
  Rng rng(513);
  auto random_scalar = [&] {
    Bytes b(64);
    for (auto& v : b) v = static_cast<std::uint8_t>(rng.NextU64());
    return ScFromBytesModL(b);
  };
  for (int i = 0; i < 2000; ++i) {
    const Scalar a = random_scalar(), b = random_scalar(), c = random_scalar();
    // a*b + c as a 512-bit little-endian integer.
    std::uint64_t prod[8] = {0};
    for (int x = 0; x < 4; ++x) {
      unsigned __int128 carry = 0;
      for (int y = 0; y < 4; ++y) {
        carry += (unsigned __int128)a.w[x] * b.w[y] + prod[x + y];
        prod[x + y] = static_cast<std::uint64_t>(carry);
        carry >>= 64;
      }
      prod[x + 4] = static_cast<std::uint64_t>(carry);
    }
    unsigned __int128 carry = 0;
    for (int w = 0; w < 8; ++w) {
      carry += (unsigned __int128)prod[w] + (w < 4 ? c.w[w] : 0);
      prod[w] = static_cast<std::uint64_t>(carry);
      carry >>= 64;
    }
    std::uint8_t bytes[64];
    std::memcpy(bytes, prod, 64);
    ASSERT_EQ(ScToBytes(ScMulAdd(a, b, c)), BitSerialModL(bytes)) << i;
  }
}

}  // namespace
}  // namespace vegvisir::crypto
