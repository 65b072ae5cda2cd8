"""Frozen answers: the independence proof, the dense dependence, the verify
residual and the dependence chains of seeded random frames, the scaling
coefficients and searches of known frames, the Phi bases with their
duals, and the unisolvent point sets, pinned by sha256.  Each digest was
taken when the answer was first computed and must stay byte for byte; CI
runs each test as its own step under a 20 s timeout (30 s for the large
real chain)."""

import hashlib
import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from isoframe.frames import (
    WeightedFrame,
    catalog,
    dependence,
    reduce_once,
    scaling_coefficients,
    scaling_reduce,
    serialize_frame,
    verify,
)
from isoframe.kscalar import Field, KElement, KVector, k_mul, rational_unit_scalars
from isoframe.phi import _point_set, dual_basis, phi_basis

from conftest import build_synthetic_frame, criterion_4_frame, mub_c2_p4


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def drawn_frame(field, m, p, n):
    """The first n nonzero vectors drawn from random.Random(0), each of the
    d*m components Fraction(randint(-3, 3), randint(1, 3)), with unit weights."""
    rng = random.Random(0)

    def draw():
        return KVector(field, tuple(KElement(field, tuple(
            Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for _ in range(field.real_dimension))) for _ in range(m)))

    vectors = tuple(itertools.islice((u for u in iter(draw, None) if not u.is_zero), n))
    return WeightedFrame(field, m, p, vectors, (1,) * n)


def chain(frame):
    """dependence and reduce_once until the forms are independent: the final
    size, the digest of each certificate and of the reduced frame."""
    steps = []
    while (cert := dependence(frame)) is not None:
        steps.append(sha(repr((cert.omega, cert.pivot))))
        frame = reduce_once(frame, cert)
    return frame.n, steps, sha(serialize_frame(frame))


def test_independence_proof_smoke():
    # 100 random rational vectors over C^3 at p = 6: exact elimination takes
    # about 38 s on them, the proof modulo a prime well under 1 s
    assert dependence(drawn_frame(Field.C, 3, 6, 100)) is None


def test_dense_dependence_smoke():
    # 85 = dim Phi_R(4,6) + 1 random rational vectors over R^4 at p = 6: an
    # 84 x 84 exact solve, fraction-free in integers; the pivot and the
    # certificate's sha256 are those of the Fraction elimination
    cert = dependence(drawn_frame(Field.R, 4, 6, 85))
    assert (cert.pivot, sha(repr(cert.omega))) == (
        52, '5557b4ba66d50e1e040ac774f2e0be504637d2048d5f3e12bbd79eddbc651a6d')


def test_verify_residual_smoke():
    # the random C^3 p = 6 frame of CI's independence smoke fails, and its
    # residual, summed in ints from the cached integer expansions, keeps the
    # terms and order of the Fraction sum
    result = verify(drawn_frame(Field.C, 3, 6, 100))
    terms = result.residual.terms
    assert not result.passed and len(terms) == 446
    assert sha(repr(list(terms.items()))) == (
        '231aa6404df76b1e4fa3a6a48f143f9dec252a8fd17836fbfea02b2bd7bfa1be')


def test_complex_and_quaternion_chain_smoke():
    # random C^3 p = 4 (54 -> 36) and H^2 p = 4 (40 -> 20) chains: every
    # certificate and the reduced frame, read from value rows on dim Phi
    # points of the lattice where x_m is real, pinned when the rows spanned
    # the whole lattice
    assert chain(drawn_frame(Field.C, 3, 4, 54)) == (36, [
        '1c019e28ddd4b241c15c98a76b6e92884479c46dc7677a659f96ed187f4b86aa',
        'c6e0c44b0fbd15ecf98b6437221dad0017d19014c7294a3a8072363ccc0cda40',
        'fdbe0ac368b9cf7b1c180edefba305d8e6f6f927353fff105549c444dd175940',
        'fb5f27bc05d5e0fe7d51a89b055128c3738e3ac5503054f65bdd457beaee0058',
        '3caf3109380819325ae16585306e3570719a9731bad3bb32cc7d368aedb8d389',
        '4b339be748297bda8960c18051a2c47d4ae22c2fb72285fc9e6f3aa988137bae',
        '4470f3672814de079d058eb88aabc8a8a87cf275d31fd255f59d2013ce49866c',
        'c47edf0c6ae176af55088cee7e5aab256696cbd9f247671fa290f98f240490a1',
        'dbe4235a42476a4d346eab7a0607d5575078419a14ee3b6ce6a69523d9b122d4',
        '38098cc25f36d142e0295a6eb36a26511baf6d92f61d756ae511e9a00cd1d0a7',
        '7766b01f68e1d923a763d85c27663432220283aef361780028008faa49ca8685',
        'f9b1653fe817b859443531628a230d7874ba0fdfbff0a8be37bcccce6d492b8c',
        'f6485e426df3c9e0c08bdceb369d812924cc2dff4da1336a6027407eb48c378f',
        'd0dd28c4b8886afe220fb5ff68f1d995ffd465437505a166ea1a365d39ac3226',
        'f34bb5a64b3160ad24ef35339703e29f59a1dd34e9a0cfe25474da4c5a21e6e2',
        '98634bf59811a8d2b7be3ed131ae32e4a10892ed01f8100f28332d99e6f55485',
        'b43bd9bca618d667c2b413f062f1bfe91861c05dcf712ac8a59e23c21e17a367',
        '5a9348be474fa516bfe2c553661648a8054855db1f514302d3217ffbba12b036',
    ], '3d3b9a22a3a32d12429a993798207cc0248dbd9ff111cc6b6c4cc58d5848bceb')
    assert chain(drawn_frame(Field.H, 2, 4, 40)) == (20, [
        'b364e70320b86fe2e4a8644330319e07141e65c82a6eab00b62d4e009f864c8a',
        '539b5bb7d4bdd0b66652bf14369daffe88cb5bd84a5d7d7cfa665bbb8a489c08',
        'b8a21d64a0bc511b54363f25bdd62cec269c92e35a09aa83e5370eb537786ee9',
        '572c66292dfb20708ceeda9643bd18ed6ff3afef624b0dc8a622ae2fa62dff95',
        'a44d43c542a34b7872f5adf1c734fb6e6e0397aa0458af7091024121fc0dad24',
        'a41cfcbe7013e8e7c66a633df2743d8bf291152bb9230509499e45b9c48ee9fd',
        '28d66650300ec3a414189e8ac73e2b51df58a76b36d3aa233a680380ca4807d5',
        '3b12e1093260a67cdd7ff663f7c56378fa4e23d3096b9ab690037527235de712',
        '3e28f2a690ab923d65288ce33bee5fbb68450a8b832de36375461d8c865a1276',
        'cea6d50cb2f626bee46f2ba031dd519ff3d4d3bf14f8093314d97e6d2e765089',
        '15a3f36e869562a48cd964b6353edfd1619ac2280339a68a4435d12ed2a4c932',
        '15d4ee2873e537b373a58f7fcac00e9039eac6700e5dd1ee734c6b004563bdf1',
        '2d88c704ae102f95a5a8d7631b3f3d93137dccf31c7afb3ec552d9f47ecd674d',
        '9746d60945d93ed89a466b113a8e041bc2181dd5185bc6a0ffd310a5ec6b0d33',
        'fec94ed08bf1a234e99aa0228af6e037f7fed906b828c118c4b2670c7d7d0183',
        'c80a0292cda6cc786720223df4303e595d991ad494494d762e7a1420985c0e34',
        '5beb566ca569b946295b834fac77536e370a1257bec8886de4b25ebd89a739d8',
        'd95d26fefb7f01190626efec35789710152cabbf08098e62bea868a9c34e352e',
        '5bc8d7587d8ea6be18d77170348878473de1dd0e3ad4bf33456168e656612b95',
        '5d0e6959d9e97060831fddcd3ca1e9c99a90658cd3c703aa75901ff43a1289e1',
    ], 'e546b3620dbcdc6e988453d7925e5afc691918ffdadd2fab4546c5374448f2c1')


def test_real_chain_smoke():
    # random R^3 p = 6 chain (56 -> 28): every certificate, with omega built
    # from the integer scale powers s_k^p, and the reduced frame
    assert chain(drawn_frame(Field.R, 3, 6, 56)) == (28, [
        '2bc1527f93010ec7f93f023b2e9827a047eb1a2008b71299072581b0c0213ab1',
        '9f95250207d5298fc1f1ec4aefa5c8b3440bdcd3639fb9d62060deeaa242bc3a',
        '20c59beab86c5ebcfe04e904d0f6a59d7600dc06b8e295c72fa48507189c1786',
        'e5dfc329ac9443805bf4bcf217d7ae59eddf7c14382cfcca2b5ff259faea1b0c',
        '02b001edaa4bd1be61478f75db33e23f59fd4ee319d9d3c1165fc83dfdba2ea9',
        '8d2e51aec84fac1b518eb86f1edc735cd06116a9b57e89198702d19e129af9ba',
        '8e29c43cd043a8950fae88a0218d78890bc026e487521803ba0ce99a0eb6892e',
        'aab0add8d44907f7d561813495dd645a953ca5e9ea8b5a3d9d08442441dfd898',
        '1efe84a169e7daba3eb5a3ed922e026bdbc693ac12204d9946e1031740b8b4f5',
        '0235c11a01bbbd2303c67f24e99fd3d75af7f402498e1f3c25cf39a2b48c93a8',
        '2d2d24763b6a685075b3e6d60b2dee4abb02ea1ecc78d851b87065cc16fa6de0',
        '5cc05b0083c4c812d6a61cb09ee7209b120d122c57a54f484b1e6d3d4d96b898',
        '8b41320480f94d5c29a206086426b89830b1018afdfe6c531098ddd4b0e37a55',
        'b761a70de8da7e197d0e5290c9af60946dc70713427c465e7d7928582f7171b3',
        '22da5a1951e1ec4b2be9e96ba0419373bfa5497b9feeb7a2dd5e8ff544c7ebc8',
        'ba7a47e2472f3e2d13f73c121d14eb26c309abd841cad3131003b776cd45920d',
        '9e9fe04b13be8e750b5133a3b447c37cff1dc504814d97e203eb1f1502f5deb7',
        '971ab7b8a85f5a0a1c69dadaa98c0acef453e81b629f4565615d1a7162a02cdd',
        'a3098693d6af6e6e42c1074ef187afb2989da8c38669f1021f0640ef86e57f1f',
        'ba5a4ed9f7bedd8377a183826ee2f2757d881eaadcaad0379100330f4fe15ad8',
        'bfb877f3bcc58d622e6f14c8377d5895ec7a633c9efbff2aebc43c931aa787e1',
        'b315b2a82f88a37ea1826a7c9bb80ec71a6e829d5b39b3e9a36d894b2e26f8ab',
        '15d84f74c91146f22e71f583a8c64189b9f48629e58c40e58c307c3d96703092',
        '7e90fe1f16cdf51086ad277620687c8b7911ccdc6800236dee9270db08b04505',
        '106953792b43e20c4459da8eab62c8c52587dfa0f49d053982f8cb08a43fea64',
        'c4aa443503ec9e12629f2c4c60df4cf0f67dc9fc08144d14b7ba84c9407298b8',
        'c5daa3ae0c9f72e0687c15f476d2c3a5b8fca2c5671e105788a0c72db7b4758d',
        'ca448ba891439bb90a2d46c7be9f3349bbb77601ce564966ae02739869eb2bee',
    ], '5e7cc937ac2827f506f02d4822386c26ac867b18166b0faf7092efec4861ac7d')


def test_chain_timing_script_prints_the_chain_answers():
    # tools/chain_timing.py, the chain measurement of the ROADMAP and the
    # BENCH files, runs in a fresh process and prints for each chain the
    # answers of chain() in this process
    script = Path(__file__).resolve().parent.parent / "tools" / "chain_timing.py"
    proc = subprocess.run([sys.executable, str(script), "R3p6-56", "criterion4-seed8"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [line["name"] for line in lines] == ["R3p6-56", "criterion4-seed8"]
    for line, frame in zip(lines, (drawn_frame(Field.R, 3, 6, 56), criterion_4_frame(8))):
        n, steps, reduced = chain(frame)
        assert line["n"] == [frame.n, n]
        assert line["certificates"] == steps and line["reduced"] == reduced


def test_large_real_chain_smoke():
    # random R^4 p = 6 chain (126 -> 84, 42 steps): one exact elimination of
    # the value rows is carried along the chain, each row entering it once,
    # where solving every step afresh took about 48 s;
    # every certificate and the reduced frame are those of per-step solving
    assert chain(drawn_frame(Field.R, 4, 6, 126)) == (84, [
        '04f9921b0cc01d177127ea18eba7c7cd4e5f56a7465932c04d601319ccad6c16',
        'fc60137edf5835a17ed8fd0196d80e33a1c719405bbc543b560a631f2faa9b89',
        'e3ba1c69f6792db45498faecb764bcef159908b872abf0ea6fb27f04456c590e',
        '41417214de9ede4b3574f0f841ca7d8d659772a1d4bbf0a5b5c6fd9d4e50c945',
        '3c9cc8727acbcf40071b5df78ec409558abef746073da47b83ddb90aca286a29',
        '31c667f6c08779c0c7cf20f90931dfa51b384d0e36551b282d92b92263774f5c',
        'bb15dbe359bbfac333d6ded080b2b233052cfa484830e461af6ee252c0497957',
        'b28222349760b67c8b5e308dcf9dce34661d871013b0bf349b7d0aa28bff05be',
        'f6474e62e2fa9332b93b956427d1c487f4338fcfc612c0ec90bfb1ed717b238e',
        '0bb2f2ef4417ccc401743a5263f5d563f43c60b04fa21e971c50d15d00aa1e9c',
        'aca3931691bb1065e3fb3d3acd5bf898dc43b5551e7c8676c2be4803cbe066b6',
        '299e4ad60e136f7cd2eff3121f893a7d10d58aa75e0c28e8e150330fc151ba0c',
        '7ac22132c74714a55c13e34d2bce66cbadd00fcd69402551a454c20584574e5f',
        '97faa539b8d732ac66e01a85c30d19e6511bf7b1b2e3fe87c3224ae8fb7137b1',
        'eca3fe29736c3a5b31b84db7c4a071af3648a81dfe01bcdf957390333bc88d7c',
        'e14d9e1f40bed9566a085263434d725af9a6d64471c32dc93f0e5b1480a35221',
        'd96e5b7a62ab73c87205b1c041bb8e4cf3782e797e944bff3dbe88d78ff136fd',
        '61d0c94455cc90457217c3393a2d03190991c24ec7239fa4be0eee5759a06fbf',
        'b9f895b19af329327dc067c59b259906815638b83a7f52e4cb06c2c85999cd4e',
        'd23656bc204352c529265f669cff936a8f7dc8e8d7b911899dd256d2f5d84235',
        '8cd8edcc980d4ff1f3ef1c9067f2e4e02f2139b0b27bea1229070de48d79bce6',
        'c2ef0528c096a15b2d1360423f4fe475417a7ccb411b7c4aedc7f91b9ba48ae1',
        '6a287a169ccd6c3ebdf18fd441b90252341ce601b8cb5a321a0527171b31bae4',
        'ad841e01cc983716f863489243b2cc08d478d43928bff586f6acc3391ae44612',
        'a879baaf09af6ccee5b589e784124c9f9f6d589796066f66707b680d806a8beb',
        'b3062efd4762db74065b25047758e99e7b8489368aaae89db545af4ace4170a9',
        'd08f0ede340916bbc32a99b31d3ad37db07f64435b4be3345347f919511d68e3',
        'f4f46a2526c25ad670a670fcb383fae1e27b1d963dea756bca160c65e8f68e3d',
        '5645728149babe5d7d87097eaf365d0baf31125f1fd9154e05efd10565307d98',
        '456b4f440522eaaba5e567d5296f9ae43f3aef563cfe9bf8515d2d4c6e48a9cc',
        'e8bb0a5a66ad0a64e5a410a8967482038e9bcd40e00270fa03437f18954dfab6',
        '9227d80a2aeba82cf88d7abf53abebb4a98b134411730656b6fda346f1512247',
        '03f3333f8bb161a65899107b054e95d66e1d580ef28499ce778cd2dbbacb1ad6',
        '68e3878c8cdc673205c79939c12e391025d7e48f5faac91a293e256380b9b628',
        '8cd8daa016d70ca58921c9e4b2c8c4d59ca13a5b76062984b3df58b9796dde41',
        '3bc2763611859b5e6d5937091d655cd50f09fff3ef5d09f6fc86acb55ec5ec81',
        '876c12cf70adbcd3221e357a388bb9b109c0d8a0186d0bf441bc3e3c595909dc',
        'c49fc6fba434d5102632900d370d0931aff830916ea4261872e2cca7e5dbe722',
        '1bb94af7bd2427d141bc76beeeee824914e47447528e2078982fb0a263b9de8a',
        '0c00614a5bd51e60eef7e428702d0ff82154157c8fcdfbadca87cfb97b8c9bd3',
        '1dd9a0ad51df5aeafb996267be5c9e2333b2ad8fe17ec6cdf59c300fcfbd8fc8',
        'ab690e1e1e497b1df04ba72a9cac0790e775c92d29ab66b3f62135dd2b87bd6e',
    ], '8923e5aea32fd6ec6fec94dd9842c130ff29bee002ba7846c3ce0fd5713cec60')


def test_dual_basis_digest_smoke():
    # the 12 DUAL_KEYS of bench/worker.py, in order: the phi_basis labels
    # and basis terms, the dual terms and the exact Gram inverse
    keys = [('R', 4, 6), ('C', 2, 8), ('C', 3, 4), ('R', 3, 6), ('H', 3, 2),
            ('C', 5, 2), ('R', 3, 4), ('C', 3, 2), ('R', 2, 8), ('R', 2, 4),
            ('C', 2, 2), ('H', 2, 2)]
    digest = hashlib.sha256()
    for tag, m, p in keys:
        basis = phi_basis(Field[tag], m, p)
        dual = dual_basis(basis.basis)
        digest.update(repr((basis.labels, [b.terms for b in basis.basis],
                            [t.terms for t in dual.duals], dual.gram_inverse)).encode())
    assert digest.hexdigest() == (
        '52e7954d22a10f3d559491239a3b04a9181772bba3e2f68abf18927936d194dd')


def test_point_set_digest_smoke():
    # the point sets Y over C and H at m = 1-4, p = 2, 4, 6, built afresh,
    # then H^3 p = 4; C^4 p = 6, H^3 p = 6 and H^4 p = 4, 6 are left out,
    # each taking seconds or more.  Y is the set of leading columns of the
    # invariant products' values, so any spanning rows give the same points
    keys = [(tag, m, p) for tag in ('C', 'H') for m in (1, 2, 3, 4) for p in (2, 4, 6)
            if (tag, m, p) not in (('C', 4, 6), ('H', 3, 4), ('H', 3, 6), ('H', 4, 4), ('H', 4, 6))]
    digest = hashlib.sha256()
    for tag, m, p in keys + [('H', 3, 4)]:
        digest.update(repr(_point_set.__wrapped__(Field[tag], m, p)).encode())
    assert digest.hexdigest() == (
        'ea57d514f6d5c4380c7860260d44a9dd5c6ca8cbf97fa73b1c243a7fe1eed9fb')


def rvec(a, b):
    return KVector.from_reals(Field.R, [Fraction(a), Fraction(b)])


def test_scaling_coefficients_smoke():
    # the README quick-start frame and the C^2 MUB design: the exact
    # coefficient forms a_k, read from certificates over the values at the
    # unisolvent points, and the reduced frames keep the digests they had
    # when the certificates were taken over the Fraction forms
    got = [(sha(repr([list(a.terms.items()) for a in scaling_coefficients(f).coefficients])),
            sha(serialize_frame(scaling_reduce(f))))
           for f in (build_synthetic_frame(), mub_c2_p4())]
    assert got == [
        ('ad3291e228e99356c9d4a692364ea5916bae91facc16bc60bed1a35f9a653846',
         '9402e9f4d26c3471d06c6d0880d477a79e54d4e356208c6a24d675fefb219501'),
        ('55d3a4a337c4fe4763109c1b04ff32defe85c18c59441ed9ca81b3aa60de85dd',
         'a43b8922f9b76085cf56e5562ff9e98c8b1e00dc9d051824ed466b3362dcb0fe')]


def test_scaling_search_smoke():
    # the grid, refinement and bisection of scaling_reduce run on integer
    # vectors over one denominator; the reduced frames keep the digests the
    # search had on tuples of Fractions: the exact-branch frame at grid 2049,
    # the README quick-start frame at grid 20, the catalog frame at the
    # default grid, and a phase-twisted C^3 orthonormal frame at grid 15,
    # which has no reduction.  The twist multiplies vector k on the right by
    # alpha_k.
    exact = WeightedFrame(Field.R, 2, 2, (rvec(1, 0), rvec(1, 7), rvec(1, -7)),
                          (Fraction(48, 49), Fraction(1, 98), Fraction(1, 98)))
    base = catalog(Field.C, 3, 2, 'orthonormal-p2')
    alphas = rational_unit_scalars(Field.C, 3, seed=3)
    twisted = WeightedFrame(Field.C, 3, 2, tuple(
        KVector(Field.C, tuple(k_mul(e, a) for e in u.entries))
        for u, a in zip(base.vectors, alphas)), base.weights)

    def digest(frame, grid):
        out = scaling_reduce(frame, grid=grid)
        return None if out is None else sha(serialize_frame(out))

    got = [digest(exact, 2049), digest(build_synthetic_frame(), 20),
           digest(catalog(Field.R, 2, 4, 'real2-rational-p4'), None), digest(twisted, 15)]
    assert got == [
        'a410e512ac9392c65249b837a98fdefa4500841617baea6b0766c9fefa3f4e51',
        '30eadbdb9e5567372ce9cbcd6d2eb838ab63fc782458de9584dcd173353c07a0',
        '292911fa99e36ef0045db02eb859fc9c3caeef4d7c18bd59a608b3071ae8c971',
        None]
