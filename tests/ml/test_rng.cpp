#include "avd/ml/rng.hpp"

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <utility>
#include <vector>

namespace avd::ml {
namespace {

// Golden sequences: the first 64 draws of each kind for two seeds, and two
// shuffles, as std::uniform_real_distribution, std::uniform_int_distribution,
// std::normal_distribution, std::bernoulli_distribution and std::shuffle
// produced them with libstdc++ 12 on mt19937_64. Rng's own draws must keep
// reproducing them exactly.
struct GoldenDraws {
  std::uint64_t seed;
  double uniform[64];      ///< uniform(-2, 3)
  int uniform_int[64];     ///< uniform_int over kGoldenIntRanges[i % 4]
  double gaussian[64];     ///< gaussian(0.5, 2)
  std::uint64_t bernoulli; ///< bit i: draw i of bernoulli(0.3)
  int shuffle50[50];       ///< shuffle of 0..49 (even: one single step first)
  int shuffle49[49];       ///< then 0..48 from the same Rng (pairs only)
};

constexpr std::pair<int, int> kGoldenIntRanges[4] = {
    {0, 1}, {-5, 5}, {40, 200}, {INT_MIN, INT_MAX}};

constexpr GoldenDraws kGolden[] = {
    {1,
     {
      -0x1.54a34d2156f5dp+0, -0x1.5166246f50832p+0, 0x1.0638661599fd8p-2,
      -0x1.e516c7e4a1f34p+0, -0x1.f6cda60af89p-3, 0x1.4744e70ecff08p+1,
      0x1.6a403c2f5b2cp-2, -0x1.a0bc672274498p+0, 0x1.b2cf0701f18bcp-1,
      0x1.2d1890cc47568p+0, -0x1.8d7ffa3dde055p+0, 0x1.8fd167408f1ep-1,
      0x1.f2c1284942fdap+0, -0x1.c89e27c90f748p-1, 0x1.7e54dbf4e412p-4,
      -0x1.80918a449fd8cp-1, -0x1.14d39379c63d4p-1, 0x1.02123d30ab69ap+1,
      0x1.7deb97ce12dp-2, -0x1.4cf472515da2p-1, -0x1.23bba2c9b237ap-1,
      0x1.beb54c9dd8dccp+0, 0x1.29990303d445p-2, -0x1.e052ffc2d581p-2,
      -0x1.9097e8efc14p-2, -0x1.6f231df3e0e4cp+0, -0x1.673a5883cec0ep+0,
      -0x1.a7871a111b8a1p+0, 0x1.794b41b22263cp+0, 0x1.3d2e07e983bb4p+0,
      0x1.f3768c6214faap+0, -0x1.3238441fcbcap-5, 0x1.4ca3b71e91cfp-1,
      -0x1.0af9ac65dd6p-7, -0x1.0c57c8536dce3p+0, 0x1.f84bdbb1247acp-1,
      0x1.3896c8b3bf992p+1, -0x1.2d000c66d43d8p-3, -0x1.cecc963797c51p+0,
      -0x1.2ad7871dc611cp-1, 0x1.36984c6f9ba64p+1, -0x1.61db4230b897p-1,
      0x1.347115f18aac4p-1, -0x1.e7034277f24p+0, 0x1.111f2740a1b2p-1,
      0x1.7f4f1a5f542dp+1, 0x1.0b242b38027fep+0, 0x1.536a9a6b39bb6p+1,
      0x1.2e4951b432acep+1, -0x1.308d75d996fc2p+0, 0x1.fa819fbd69d4ap+0,
      0x1.e2dfaf0096a08p-2, 0x1.8203837e0c708p-1, 0x1.a4e9c2020ce84p+0,
      -0x1.ee0c11256a5bbp+0, 0x1.fdf69490f47ap-3, -0x1.1570d1b2ed4b3p+0,
      -0x1.b765551fcba82p+0, -0x1.0a5d4118c2cb5p+0, -0x1.f05175eb4035ap+0,
      -0x1.93bdea6653b22p+0, -0x1.ff38c90700137p+0, -0x1.5444b30c5573ep+0,
      -0x1.b08911c6d3f0cp-1,
     },
     {
      0, -4, 112, -2057185275, 0, 5, 115, -1827830535,
      1, 1, 54, 241286534, 1, -3, 107, -1074695636,
      0, 3, 116, -988102306, 0, 3, 113, -832421885,
      0, -4, 59, -1850620010, 1, 2, 167, -461606202,
      1, -1, 70, 416572100, 1, -1, 46, -930870250,
      1, -3, 123, -2063640293, 1, 5, 138, 1848288298,
      1, -4, 168, -24432858, 1, 3, 42, -215602659,
      0, -5, 70, -2094864278, 0, -5, 61, -1155170760,
     },
     {
      -0x1.183b4029bb42p-2, 0x1.dfa75918ca314p+0, -0x1.171d689089fddp+0,
      0x1.180e9f08ce534p+2, 0x1.7856f1c567b8fp-1, -0x1.97d8bde02a3e2p-1,
      -0x1.462918a96f613p+1, 0x1.29ec9b5d8a00cp+1, -0x1.7e9f74004bbf8p+1,
      0x1.3be037e773566p+1, -0x1.a14b1cc63d869p+1, -0x1.e8de30ae8cf2ap-1,
      0x1.45cabfd96fdd6p+1, -0x1.d94b040f4fcdap-2, -0x1.11e4aae8b8d7dp+2,
      0x1.49459dc810526p+0, -0x1.0b33b3a0cff58p-4, -0x1.4982704b5437cp-3,
      -0x1.274d68742c102p-2, 0x1.5d36585c662e2p-1, 0x1.d6a490d9a3969p+0,
      0x1.c6e9ed8e5565dp-2, 0x1.f30bfdbb9ac8ap+1, 0x1.bff8d09aa0b62p-2,
      -0x1.e25dce1c16bdp-3, 0x1.9e0d5b3970798p-1, 0x1.05e7aaf9231a2p+1,
      -0x1.7bdd74130abe4p-1, 0x1.8a974685d9f45p+0, 0x1.abb74bf10cf59p+1,
      0x1.5f86a980368e9p+1, 0x1.335fe246fe089p+2, 0x1.1e191778cdf04p+0,
      -0x1.c14e3ec025938p+0, 0x1.024d7d292b902p+2, -0x1.df273eb8f77f6p-1,
      0x1.463ba5900e89cp+0, 0x1.8936447f2c94p+0, 0x1.244f954e0f36p+0,
      0x1.1d8b23f12810ep+1, -0x1.38d9152d9d5e6p-2, -0x1.bd9de1a34baeap-1,
      0x1.267bf910e39fp+1, -0x1.2d0513d70c11ep+0, 0x1.c334348c97b08p-5,
      -0x1.7863d46b5ed7dp+0, 0x1.2d5ef70c6d503p+2, -0x1.013e2e1b16d9bp+1,
      0x1.d196210d65705p+0, -0x1.b193800038a4ep-1, 0x1.f65af47466825p-2,
      0x1.1fcbdf8bf56c4p-1, -0x1.09e16d6168194p+2, -0x1.4d4292401620fp+1,
      -0x1.a79eb2132e32ep-1, 0x1.d5b549853471ap-1, 0x1.a727ebc66b96p-2,
      0x1.29a682229a359p+0, -0x1.23f5d598b0632p+0, 0x1.12e16396a2b89p-1,
      -0x1.4e24badb2cadep+1, 0x1.d6bfc7927ab19p+1, 0x1.ae70520df63dcp-3,
      -0x1.821fa9f55c27p+0,
     },
     0xff420ac40e19a48bULL,
     {
      11, 20, 4, 8, 35, 26, 12, 30, 0, 43,
      38, 40, 28, 9, 46, 48, 7, 36, 47, 25,
      44, 39, 18, 31, 23, 24, 3, 27, 45, 1,
      41, 21, 42, 15, 22, 29, 2, 33, 49, 37,
      6, 5, 16, 32, 19, 34, 13, 17, 14, 10,
     },
     {
      37, 27, 28, 22, 1, 13, 12, 17, 33, 25,
      40, 4, 9, 21, 3, 30, 20, 26, 35, 18,
      39, 23, 19, 10, 16, 11, 43, 36, 38, 24,
      7, 34, 8, 29, 6, 44, 0, 46, 31, 15,
      32, 47, 48, 14, 2, 41, 5, 42, 45,
     }},
    {0x5eed,
     {
      0x1.330e2dbab1e94p+1, -0x1.88ea73fa334e4p-2, -0x1.b842d42ef44ecp-1,
      0x1.5f01e1922c46p-1, 0x1.099de4789ba9p-1, 0x1.c587d1245fcc8p+0,
      -0x1.58e2da34183fp-4, 0x1.1fba07c5f441p-1, 0x1.f8a12b146108cp+0,
      0x1.ec97ec541bef8p+0, -0x1.3a9eda3571728p-3, 0x1.c15802608c9cp-3,
      0x1.8bcb91559decp-3, -0x1.b443aa2c5b0fep-1, -0x1.ebe54610d472bp+0,
      0x1.0c7a988cf2b6ap+1, 0x1.0de89592dc4eep+1, -0x1.fb32fc3a4fb38p-1,
      -0x1.71b3842eda0e6p+0, 0x1.751550ef613bp-1, 0x1.20ee23418245ep+1,
      -0x1.775c4cfb1db68p+0, -0x1.6837838874fdap+0, -0x1.faa7057f2a4bcp+0,
      -0x1.39a0cdd3bccc8p-2, -0x1.fabc92cc41bdp-3, -0x1.d012adf1b0308p+0,
      -0x1.54230f947d536p-1, -0x1.369084edc031cp-1, -0x1.1ce1bab55a638p+0,
      -0x1.1be1a16f32bacp+0, 0x1.0ff597909aecap+1, -0x1.403c9b90edc94p-1,
      -0x1.2023ad2098282p+0, -0x1.92c8a3bd6665cp+0, -0x1.c595591441062p+0,
      0x1.e4173898db2c8p-1, 0x1.f79832d0b5a8cp+0, -0x1.b88bdd7f0d3bcp+0,
      0x1.d699bdc1fced6p+0, -0x1.db05a7e99dddcp+0, -0x1.7d74ce39352a9p+0,
      -0x1.e55394a089002p+0, -0x1.4215f3771ae1ap-1, 0x1.1e764ed04107p-2,
      0x1.00a83aefed032p+1, -0x1.ea08a5176c06cp-1, -0x1.1537627daa80cp+0,
      0x1.12eca12e1def2p+1, 0x1.22de8782e3ecep+1, -0x1.e4f276ab6758p-1,
      -0x1.fe6553adaa206p-1, 0x1.766902a01cedp-1, 0x1.490e1b322c6c4p+1,
      -0x1.072d2fa65065cp-2, 0x1.622fe8ab1002ep+0, -0x1.cd66f5c91cbp-8,
      -0x1.dd72cf411215dp+0, -0x1.d6e8058cd9e62p+0, 0x1.c75f09677470ap+0,
      -0x1.109e5276e7409p+0, 0x1.41ab8274f8bcp-1, 0x1.45cba4d5dfaa8p+1,
      0x1.4dadbe710b7bcp+1,
     },
     {
      1, -2, 76, 159395880, 1, 3, 101, 53228538,
      1, 3, 99, -241028286, 0, -3, 42, 1372234603,
      1, -3, 57, 196433124, 1, -4, 59, -2129540173,
      0, -2, 46, -1000151849, 0, -4, 68, 1395591533,
      0, -4, 53, -1951470033, 1, 3, 48, 1149576691,
      0, -4, 43, -969866944, 0, 3, 73, -1359680435,
      1, 4, 73, -1285798802, 1, 5, 96, 758958114,
      0, -5, 45, 1098475591, 0, 0, 186, 1809783034,
     },
     {
      -0x1.ae37185ab624p-3, 0x1.d66b5923dc887p-1, 0x1.e4e2e04274283p+1,
      0x1.01fb0780dad76p+0, 0x1.be347ecb4c123p+0, -0x1.44e04956e493ap+0,
      -0x1.3f6238a9b51a4p+1, -0x1.ef831f88f1356p-2, 0x1.7652a7f6f0632p-1,
      -0x1.f6f8ac4406b9ep+0, -0x1.224cb8de9611bp+0, 0x1.5960ef6b88515p+0,
      -0x1.17d13ee49ef6bp+0, 0x1.968a8a9650298p+1, 0x1.a514b10d916d2p+1,
      -0x1.47e2e2c4c438cp-1, 0x1.072aabfa00d9ep+0, -0x1.75c502e7bde32p-1,
      0x1.192ff860fde08p+1, 0x1.9409c41718d5fp+1, -0x1.afbd0c3afcd48p-3,
      0x1.7217e5940981cp-1, -0x1.105df10ad98dep+1, 0x1.291f3b6d1b67fp+2,
      0x1.0f52767e032b4p+0, 0x1.c38e921da7855p+1, 0x1.5b80d2315f9a9p+2,
      -0x1.1fa4d0b7578e8p-2, 0x1.0968069123c6dp+2, -0x1.fd238952017c4p-2,
      -0x1.0de26ce4e454p-3, 0x1.ec52a9a7ef553p+1, 0x1.9413df07cd9bap+0,
      -0x1.80c300e1d07c8p+0, 0x1.99bbca8bec764p+1, -0x1.5edbd19856832p+1,
      0x1.2ef0d6779ecd1p-1, 0x1.0a68c89c16228p+1, 0x1.324111f7de148p+1,
      0x1.3f12c7b56db3dp+0, 0x1.6c7b11e3fc3cep-1, 0x1.8e9a7428c3464p-2,
      -0x1.ef4ac6430df22p-1, 0x1.dbff9db2551b1p+0, -0x1.a177184fcf608p+0,
      -0x1.8a9eb5db3fd91p+1, 0x1.76d736a81c1d8p+1, -0x1.7b3cc36f9aac3p+0,
      -0x1.d8300138506ep+0, 0x1.1cbb0734301bcp+1, 0x1.2abf25b5bfe43p-1,
      0x1.25d91a284124fp+2, 0x1.148fc5eed431bp+1, 0x1.33cdd45612e84p-3,
      -0x1.836e564f350dbp+1, -0x1.5476c29330b96p+1, 0x1.b850296fbb54p+1,
      -0x1.0a092328c553fp+1, -0x1.92f59f70e08b6p+1, 0x1.0b89fa7d612efp-2,
      0x1.68b2f1f966155p+0, 0x1.092836d016e9ep-2, 0x1.3da1146d3d28ep+0,
      -0x1.89c3b26ad7ecp+0,
     },
     0x160ccf4f7ce66004ULL,
     {
      46, 4, 35, 33, 42, 44, 26, 34, 10, 47,
      24, 39, 31, 29, 18, 45, 48, 2, 19, 3,
      14, 38, 15, 9, 22, 43, 7, 32, 5, 49,
      25, 8, 23, 11, 40, 0, 12, 36, 41, 6,
      20, 13, 37, 30, 27, 1, 28, 17, 21, 16,
     },
     {
      35, 27, 18, 33, 15, 0, 16, 44, 45, 43,
      37, 13, 9, 8, 23, 6, 38, 1, 39, 12,
      46, 19, 4, 29, 17, 10, 3, 42, 26, 20,
      32, 30, 22, 41, 28, 31, 21, 7, 34, 47,
      48, 24, 36, 40, 2, 14, 25, 11, 5,
     }},
};

TEST(Rng, GoldenUniform) {
  for (const GoldenDraws& g : kGolden) {
    Rng rng(g.seed);
    for (int i = 0; i < 64; ++i)
      EXPECT_EQ(rng.uniform(-2.0, 3.0), g.uniform[i]) << g.seed << " #" << i;
  }
}

TEST(Rng, GoldenUniformInt) {
  for (const GoldenDraws& g : kGolden) {
    Rng rng(g.seed);
    for (int i = 0; i < 64; ++i) {
      const auto [lo, hi] = kGoldenIntRanges[i % 4];
      EXPECT_EQ(rng.uniform_int(lo, hi), g.uniform_int[i]) << g.seed << " #" << i;
    }
  }
}

TEST(Rng, GoldenGaussian) {
  for (const GoldenDraws& g : kGolden) {
    Rng rng(g.seed);
    for (int i = 0; i < 64; ++i)
      EXPECT_EQ(rng.gaussian(0.5, 2.0), g.gaussian[i]) << g.seed << " #" << i;
  }
}

TEST(Rng, GoldenBernoulli) {
  for (const GoldenDraws& g : kGolden) {
    Rng rng(g.seed);
    std::uint64_t bits = 0;
    for (int i = 0; i < 64; ++i)
      bits |= static_cast<std::uint64_t>(rng.bernoulli(0.3)) << i;
    EXPECT_EQ(bits, g.bernoulli) << g.seed;
  }
}

TEST(Rng, GoldenShuffle) {
  for (const GoldenDraws& g : kGolden) {
    Rng rng(g.seed);
    std::vector<int> even(50), odd(49);
    std::iota(even.begin(), even.end(), 0);
    std::iota(odd.begin(), odd.end(), 0);
    rng.shuffle(even);
    rng.shuffle(odd);
    EXPECT_EQ(even, std::vector<int>(std::begin(g.shuffle50), std::end(g.shuffle50)))
        << g.seed;
    EXPECT_EQ(odd, std::vector<int>(std::begin(g.shuffle49), std::end(g.shuffle49)))
        << g.seed;
  }
}

TEST(Rng, DeterministicUnderSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) same += a.uniform() == b.uniform();
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformRespectsRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments) {
  Rng rng(13);
  const int n = 20000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.gaussian(5.0, 2.0);
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(19);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto sorted = v;
  rng.shuffle(v);
  EXPECT_NE(v, sorted);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(23);
  Rng child = parent.fork();
  // Child stream differs from the parent's continued stream.
  int same = 0;
  for (int i = 0; i < 50; ++i) same += parent.uniform() == child.uniform();
  EXPECT_LT(same, 5);
}

TEST(Rng, ForkIsDeterministic) {
  Rng a(29), b(29);
  Rng ca = a.fork(), cb = b.fork();
  for (int i = 0; i < 20; ++i) EXPECT_DOUBLE_EQ(ca.uniform(), cb.uniform());
}

}  // namespace
}  // namespace avd::ml
